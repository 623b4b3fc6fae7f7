package deanon

// ShardedIncStudy is the incrementally-maintained counterpart of Study,
// built for the live serving layer (internal/serve): payments arrive in
// batches over the lifetime of a long-running process, and both the
// per-resolution information gain and individual sender-uniqueness
// lookups must be answerable in O(1) at any point — not only after a
// closing Results pass. It is the incremental face of the sharded
// count-table core (shardcore.go), the same engine ParallelStudy counts
// with.
//
// Seal is the scatter-gather snapshot step: it flushes every pending
// batch, barriers on the shards that received work since the last seal,
// seals ONLY those shards' tables — each copying just the pages written
// since its previous seal and sharing the rest (counttable.go) — and
// returns an IncSnapshot whose Results and Lookup answers are
// bit-identical to a batch Study — shards partition the fingerprint
// space, so per-resolution unique counts are plain sums and a lookup
// probes exactly one shard's table.
type ShardedIncStudy struct {
	shardCore
	def *intake

	// sealed[sh] is shard sh's tables as of its last dirty Seal —
	// immutable, and shared with every snapshot taken since.
	sealed [][]*sealedTable
}

// NewShardedIncStudy prepares an incremental sharded study over the
// given resolutions with 1<<shardBits counting shards. shardBits is
// clamped to [0, 10]. Close must be called to stop the shard workers.
func NewShardedIncStudy(resolutions []Resolution, shardBits int) *ShardedIncStudy {
	s := new(ShardedIncStudy)
	s.start(resolutions, shardBits)
	s.def = s.newIntake()
	s.sealed = make([][]*sealedTable, len(s.shards))
	for sh := range s.sealed {
		// Until the shard's first dirty seal, snapshots share the one
		// immutable empty table.
		tables := make([]*sealedTable, len(s.resolutions))
		for r := range tables {
			tables[r] = emptySealed
		}
		s.sealed[sh] = tables
	}
	return s
}

// Resolutions returns the study's resolution rows, in order.
func (s *ShardedIncStudy) Resolutions() []Resolution { return s.resolutions }

// Plan returns the study's compiled fingerprint plan, for producers
// that precompute fingerprints upstream (the serving layer's projection
// front door) and feed them back through ObserveFingerprints.
func (s *ShardedIncStudy) Plan() *FingerprintPlan { return s.plan }

// ObserveFingerprints folds one payment's precomputed fingerprints —
// one per resolution row, produced by the study's Plan — into the shard
// counts via the study's default producer handle. It must not be called
// concurrently with itself, Observe or Seal.
func (s *ShardedIncStudy) ObserveFingerprints(fps []Fingerprint) { s.def.add(fps) }

// Observe folds one payment in, encoding its features and
// fingerprinting every resolution through the shared plan.
func (s *ShardedIncStudy) Observe(f Features) { s.def.observe(f) }

// Seal publishes the current counts as an immutable IncSnapshot. Only
// shards that changed since the previous Seal are resealed, and a
// resealed table copies only its pages written since — clean shards,
// tables and pages are all shared with the previous snapshot — so the
// publish cost tracks the increments since the last seal, not the table
// size. A table is copied whole when it grew since its last seal (growth
// doubles it, so the copy is amortized over the inserts that filled it)
// or when half its pages are dirty (the copy then costs at most twice
// the page copies it replaces). Every producer must be quiescent.
func (s *ShardedIncStudy) Seal() *IncSnapshot {
	for _, sh := range s.quiesce() {
		tables := make([]*sealedTable, len(s.resolutions))
		for r, t := range s.shards[sh].counts {
			tables[r] = t.seal()
		}
		s.sealed[sh] = tables
	}
	snap := &IncSnapshot{
		resolutions: s.resolutions,
		shift:       s.shift,
		tables:      append([][]*sealedTable(nil), s.sealed...),
		payments:    s.Payments(),
	}
	snap.unique = sumPerResolution(snap.tables, (*sealedTable).unique)
	return snap
}

// IncSnapshot is one sealed, immutable epoch of a ShardedIncStudy: the
// per-shard count tables plus the derived per-resolution unique counts.
// It is safe to share across any number of reader goroutines.
type IncSnapshot struct {
	resolutions []Resolution
	shift       uint
	tables      [][]*sealedTable // [shard][resolution]
	unique      []int
	payments    int
}

// Payments returns the number of observations sealed into the snapshot.
func (s *IncSnapshot) Payments() int { return s.payments }

// Resolutions returns the snapshot's resolution rows.
func (s *IncSnapshot) Resolutions() []Resolution { return s.resolutions }

// Results returns the information gain for every resolution, O(shards)
// per row. The rows are bit-identical to a batch Study fed the same
// payments in any order.
func (s *IncSnapshot) Results() []RowResult {
	return rowResults(s.resolutions, s.unique, s.payments)
}

// Lookup returns how many sealed payments share the observation's
// fingerprint at resolution row i, saturating at 2: 0 = never seen,
// 1 = unique (a successful de-anonymization), 2 = ambiguous. O(1): the
// fingerprint's high bits pick the one shard table that can hold it.
func (s *IncSnapshot) Lookup(i int, f Features) uint8 {
	return s.LookupFingerprint(i, FingerprintOf(f, s.resolutions[i]))
}

// LookupFingerprint is Lookup for a precomputed fingerprint.
func (s *IncSnapshot) LookupFingerprint(i int, fp Fingerprint) uint8 {
	return s.tables[uint64(fp)>>s.shift][i].get(fp)
}

// CountBytes reports the footprint of the sealed tables, each counted at
// its full size whatever pages it shares with other epochs. The shared
// empty placeholder is counted once, not per shard.
func (s *IncSnapshot) CountBytes() int {
	n := 0
	sawEmpty := false
	for _, tables := range s.tables {
		for _, t := range tables {
			if t == emptySealed {
				if !sawEmpty {
					n += t.bytes()
					sawEmpty = true
				}
				continue
			}
			n += t.bytes()
		}
	}
	return n
}
