package engine

import (
	"sync"

	"rfidraw/internal/rfid"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// scratchPool hands each shard its reusable refinement scratch (the
// hierarchical search's memo and frontier buffers, see vote.Scratch) when
// its goroutine starts and takes it back when the shard exits. It is
// package-level so scratches survive engine lifetimes — callers that
// build an engine per stream (benchmarks, tests, short-lived servers)
// reuse warm scratches. One scratch serves all of a shard's tags because
// a shard is a single goroutine; scratches never influence results.
var scratchPool = sync.Pool{New: func() any { return vote.NewScratch() }}

// traceJob is one batch tracing unit of work.
type traceJob struct {
	samples []tracing.Sample
	out     *TagResult
	wg      *sync.WaitGroup
}

// shardMsg is a shard inbox message; exactly one field is set.
type shardMsg struct {
	// job runs one batch trace.
	job *traceJob
	// reports is a pooled streaming batch; the shard returns it to the
	// engine's pool after processing.
	reports *[]rfid.Report
	// flush closes every tracker's current sweep and acks.
	flush chan error
	// stats asks for a snapshot of per-tag streaming state.
	stats chan []TagStats
	// results asks for batch-equivalent trace results (RecordTrace).
	results chan []TagResult
}

// shard is one worker: a goroutine owning the per-tag state of every tag
// hashed onto it.
type shard struct {
	id   int
	eng  *Engine
	in   chan shardMsg
	done chan struct{}
	// scratch is the shard's reusable refinement scratch, held for the
	// shard goroutine's lifetime (from the engine's scratchPool) and
	// shared by every batch trace and live tracker on this shard.
	scratch *vote.Scratch
	// tags is the shard's live per-tag state, built on the shard
	// goroutine once its scratch is in hand.
	tags *tagSet
}

func (s *shard) loop() {
	defer close(s.done)
	s.scratch = scratchPool.Get().(*vote.Scratch)
	defer scratchPool.Put(s.scratch)
	s.tags = newTagSet(&s.eng.cfg, s.eng.sys, s.scratch)
	for msg := range s.in {
		switch {
		case msg.job != nil:
			res, err := s.eng.sys.TraceWith(s.scratch, msg.job.samples)
			msg.job.out.Result, msg.job.out.Err = res, err
			msg.job.wg.Done()
		case msg.reports != nil:
			for _, rep := range *msg.reports {
				s.tags.offer(rep, s.eng.cfg.OnUpdate)
			}
			s.eng.batchPool.Put(msg.reports)
		case msg.flush != nil:
			msg.flush <- s.tags.flush(s.eng.cfg.OnUpdate)
		case msg.stats != nil:
			msg.stats <- s.tags.stats()
		case msg.results != nil:
			msg.results <- s.tags.results()
		}
	}
}
