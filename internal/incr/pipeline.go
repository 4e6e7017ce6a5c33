package incr

// Pipelined asynchronous Apply. A Pipeline decouples change ingest from
// verification: producers Submit into a bounded queue while the worker
// verifies the previous batch, so decode/ingest, dirty-resolution and
// the solve pool (the stages inside applyLocked) overlap with arrival
// of the next updates instead of serialising behind them. Each worker
// pass drains everything queued (up to MaxBatch), coalesces it, and
// runs ONE Apply — under a sustained update stream the batch size grows
// to the queue depth and N updates cost one dirty-resolution and one
// re-verification.
//
// Ordering: a single worker drains the queue in submission order and
// emits results in apply order onto a bounded channel, so the verdict
// stream is totally ordered — result i+1's reports reflect every change
// of results 1..i+1 and nothing later. Verdicts and witnesses at each
// batch boundary are bit-identical to applying the same changes one at
// a time (see Coalesce); what the pipeline changes is only WHERE the
// boundaries fall, which it reports per result as [First, Last].

import (
	"sync"

	"github.com/netverify/vmn/internal/core"
)

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// Queue bounds the ingest queue (Submit blocks when full). Default 64.
	Queue int
	// MaxBatch caps how many queued changes one Apply may absorb.
	// Default: the queue depth.
	MaxBatch int
	// NoCoalesce applies every change individually (one result per
	// change) while keeping ingest/verify overlap — the baseline that
	// isolates the batching win.
	NoCoalesce bool
}

// PipelineResult is one Apply's outcome. First and Last are the 1-based
// submission indexes of the changes this apply absorbed.
type PipelineResult struct {
	First, Last int
	Reports     []core.Report
	Stats       ApplyStats
	Err         error
}

// Pipeline is an asynchronous, order-preserving Apply front-end over one
// Session. Submit and Close must not be called concurrently with each
// other; Results is the only consumer-side API.
type Pipeline struct {
	s    *Session
	in   chan Change
	out  chan PipelineResult
	wg   sync.WaitGroup
	opts PipelineOptions
}

// NewPipeline starts the worker. The caller must drain Results (the
// result channel is bounded; an abandoned consumer eventually blocks
// the worker, which is backpressure, not deadlock — Submit blocks too).
func NewPipeline(s *Session, po PipelineOptions) *Pipeline {
	if po.Queue <= 0 {
		po.Queue = 64
	}
	if po.MaxBatch <= 0 || po.MaxBatch > po.Queue {
		po.MaxBatch = po.Queue
	}
	p := &Pipeline{
		s:    s,
		in:   make(chan Change, po.Queue),
		out:  make(chan PipelineResult, po.Queue),
		opts: po,
	}
	if o := s.Observability(); o != nil && o.Metrics != nil {
		o.Metrics.RegisterFunc("vmn_incr_pipeline_queue_depth", func() float64 {
			return float64(len(p.in))
		})
	}
	p.wg.Add(1)
	go p.worker()
	return p
}

// Submit enqueues one change, blocking while the queue is full.
func (p *Pipeline) Submit(ch Change) { p.in <- ch }

// Results streams apply outcomes in order. Closed after Close once the
// queue has drained.
func (p *Pipeline) Results() <-chan PipelineResult { return p.out }

// Close stops ingest, waits for the queued changes to be verified, and
// closes the result stream.
func (p *Pipeline) Close() {
	close(p.in)
	p.wg.Wait()
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	defer close(p.out)
	seq := 0
	batch := make([]Change, 0, p.opts.MaxBatch)
	for first := range p.in {
		// Blocking head receive, then absorb whatever else is already
		// queued: batch size adapts to how far ingest is ahead.
		batch = append(batch[:0], first)
	drain:
		for len(batch) < p.opts.MaxBatch {
			select {
			case ch, ok := <-p.in:
				if !ok {
					break drain
				}
				batch = append(batch, ch)
			default:
				break drain
			}
		}
		if p.opts.NoCoalesce {
			for i, ch := range batch {
				reports, err := p.s.Apply([]Change{ch})
				p.out <- PipelineResult{
					First: seq + i + 1, Last: seq + i + 1,
					Reports: reports, Stats: p.s.LastApply(), Err: err,
				}
			}
		} else {
			reports, err := p.s.ApplyBatch(batch)
			p.out <- PipelineResult{
				First: seq + 1, Last: seq + len(batch),
				Reports: reports, Stats: p.s.LastApply(), Err: err,
			}
		}
		seq += len(batch)
	}
}
