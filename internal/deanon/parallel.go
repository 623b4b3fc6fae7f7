package deanon

// ParallelStudy is the sharded-concurrent counterpart of Study, built
// for the Figure 3 pipeline at the paper's 23M-payment scale: the batch
// face of the sharded count-table core (shardcore.go). Saturating uint8
// counters in open-addressed tables cut both the per-entry footprint
// and the per-observation cost versus Study's Go maps, which re-hash
// the key on every access.
//
// Contract: identical to Study — Observe folds payments in, Results
// reads the per-resolution information gain. Observe is single-producer
// like Study's; for concurrent producers (e.g. a ledgerstore
// segment-parallel scan) attach one Feeder per producer goroutine.
// Results may be called repeatedly, but no Observe may follow it.
type ParallelStudy struct {
	shardCore
	def *intake
}

// NewParallelStudy prepares a sharded study over the given resolutions
// with 1<<shardBits counting shards. shardBits is clamped to [0, 10];
// a good default is ShardBitsFor(producers). Close must be called to
// stop the shard workers.
func NewParallelStudy(resolutions []Resolution, shardBits int) *ParallelStudy {
	s := new(ParallelStudy)
	s.start(resolutions, shardBits)
	s.def = s.newIntake()
	return s
}

// Feeder is a single-goroutine producer handle. Each concurrent
// producer must own its own Feeder; Observe on distinct Feeders may run
// concurrently.
type Feeder intake

// Feeder registers a new producer handle. It panics after Results has
// been called.
func (s *ParallelStudy) Feeder() *Feeder { return (*Feeder)(s.newIntake()) }

// Observe folds one payment into every resolution's shard counts. The
// features are encoded once; each resolution reuses the encoding. It
// panics after Results has been called.
func (fd *Feeder) Observe(f Features) { (*intake)(fd).observe(f) }

// Observe folds one payment in via the study's default producer handle.
// Like Study.Observe it must not be called concurrently with itself;
// use Feeders for concurrent producers.
func (s *ParallelStudy) Observe(f Features) { s.def.observe(f) }

// finish flushes every feeder, waits for the shard workers to apply
// everything, and freezes the study against further observations. All
// producers must be quiescent. The readers below go to the live tables
// — no copy, so the 23M-payment footprint is the tables alone.
func (s *ParallelStudy) finish() [][]*countTable {
	s.frozen.Store(true)
	s.quiesce()
	return s.tables()
}

// Results computes the IG for every resolution. The first call drains
// the pipeline; no Observe may happen after it.
func (s *ParallelStudy) Results() []RowResult {
	unique := sumPerResolution(s.finish(), (*countTable).unique)
	return rowResults(s.resolutions, unique, s.Payments())
}

// CountBytes reports the resident footprint of every shard's counting
// tables, summed across resolutions — the number the saturating uint8
// counters were introduced to keep small at 23M-payment scale.
func (s *ParallelStudy) CountBytes() int {
	n := 0
	for _, shard := range s.finish() {
		for _, t := range shard {
			n += t.bytes()
		}
	}
	return n
}
