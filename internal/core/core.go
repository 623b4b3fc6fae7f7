// Package core is the public facade of the study: it wires the synthetic
// history generator, the ledger store, the consensus simulator, and the
// analysis engines into one-call experiment runners — one per table and
// figure of the paper. The cmd/ binaries and the benchmark harness are
// thin wrappers around this package.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/replay"
	"ripplestudy/internal/synth"
)

// Config parameterizes a study run.
type Config struct {
	// Payments sizes the synthetic history (the paper's full scale is
	// 23M; the default is laptop-friendly).
	Payments int
	// Seed drives all randomness.
	Seed int64
	// StoreDir, when set, persists the history to a ledgerstore and
	// streams analyses from disk; otherwise pages stay in memory.
	StoreDir string
	// ConsensusRounds scales the Figure 2 collection periods (a full
	// 2-week period is consensus.FullPeriodRounds).
	ConsensusRounds int
	// Workers caps the scan/study parallelism of the de-anonymization
	// pipeline; 0 means GOMAXPROCS.
	Workers int
	// CheckpointEvery, when nonzero on a disk-backed dataset, makes the
	// replay-based experiments persist sealed state-tree checkpoints every
	// N pages into the store's sidecar, and resume from the nearest one on
	// later runs. Zero still resumes from any checkpoints already present.
	CheckpointEvery uint64
}

func (c Config) withDefaults() Config {
	if c.Payments == 0 {
		c.Payments = 50_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ConsensusRounds == 0 {
		c.ConsensusRounds = 2000
	}
	return c
}

// Dataset is a generated history plus the state needed by the analyses.
type Dataset struct {
	cfg    Config
	source replay.Source
	result *synth.Result

	collector *analysis.Collector // lazy ecosystem statistics
}

// BuildDataset generates the history (persisting it when StoreDir is
// set) and returns the dataset the experiments run on.
func BuildDataset(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	ds := &Dataset{cfg: cfg}

	genCfg := synth.Config{
		Payments:       cfg.Payments,
		Seed:           cfg.Seed,
		SkipSignatures: true,
	}
	if cfg.StoreDir != "" {
		store, err := ledgerstore.Create(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		res, err := synth.Generate(genCfg, store.Append)
		if err != nil {
			return nil, err
		}
		if err := store.Close(); err != nil {
			return nil, err
		}
		ds.source = store
		ds.result = res
		return ds, nil
	}
	var pages []*ledger.Page
	res, err := synth.Generate(genCfg, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.source = replay.FromPages(pages)
	ds.result = res
	return ds, nil
}

// OpenDataset runs the experiments over a previously generated store.
// Analyses that need the final network state (Figure 7's profiles,
// Table II) rebuild it by replaying the store.
func OpenDataset(dir string) (*Dataset, error) {
	store, err := ledgerstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Dataset{cfg: Config{StoreDir: dir}.withDefaults(), source: store}, nil
}

// Source exposes the page stream.
func (ds *Dataset) Source() replay.Source { return ds.source }

// ecosystem builds (once) the streaming appendix statistics. Store-backed
// datasets scan segments in parallel at the configured worker count, one
// private collector per worker, merged at the end — every collector
// statistic is an order-insensitive sum or union, so the merged result
// is identical to a sequential scan.
func (ds *Dataset) ecosystem() (*analysis.Collector, error) {
	if ds.collector != nil {
		return ds.collector, nil
	}
	workers := ds.workers()
	if store, ok := ds.source.(*ledgerstore.Store); ok {
		cols := make([]*analysis.Collector, workers)
		arenas := make([]ledger.PageArena, workers)
		for i := range cols {
			cols[i] = analysis.NewCollector()
		}
		// Collector.Page copies everything it keeps, so each worker
		// decodes into its own reused arena and skips the per-page
		// decode garbage.
		err := store.PayloadsParallel(context.Background(), workers, func(w int, payload []byte) error {
			p, used, err := ledger.DecodePageInto(payload, &arenas[w])
			if err != nil {
				return err
			}
			if used != len(payload) {
				return fmt.Errorf("%w: %d trailing bytes in record", ledgerstore.ErrCorrupted, len(payload)-used)
			}
			return cols[w].Page(p)
		})
		if err != nil {
			return nil, fmt.Errorf("core: scanning history: %w", err)
		}
		c := cols[0]
		for _, other := range cols[1:] {
			c.Merge(other)
		}
		ds.collector = c
		return c, nil
	}
	c := analysis.NewCollector()
	if err := ds.source.Pages(c.Page); err != nil {
		return nil, fmt.Errorf("core: scanning history: %w", err)
	}
	ds.collector = c
	return c, nil
}

// lastSeq returns the final page sequence of the history. Sources with
// a sequence index (ledgerstore.Store) answer without scanning.
func (ds *Dataset) lastSeq() (uint64, error) {
	if ls, ok := ds.source.(interface{ LastSeq() (uint64, bool, error) }); ok {
		seq, has, err := ls.LastSeq()
		if err != nil {
			return 0, err
		}
		if has {
			return seq, nil
		}
		return 0, nil
	}
	var last uint64
	err := ds.source.Pages(func(p *ledger.Page) error {
		last = p.Header.Sequence
		return nil
	})
	return last, err
}

// Figure2 runs the three collection-period simulations and returns one
// validator report per period — the data behind Figure 2(a–c).
func Figure2(rounds int, seed int64) ([]monitor.Report, error) {
	if rounds == 0 {
		rounds = 2000
	}
	var out []monitor.Report
	for _, spec := range consensus.Periods(rounds) {
		rep, err := monitor.CollectPeriod(spec, consensus.Config{Seed: seed}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// TableI returns the rounding specification rows.
func TableI() []string { return deanon.TableISpec() }

// SetWorkers overrides the de-anonymization pipeline's parallelism
// (0 restores the GOMAXPROCS default).
func (ds *Dataset) SetWorkers(n int) { ds.cfg.Workers = n }

// SetCheckpointEvery adjusts the checkpoint cadence after opening a
// dataset (flags on the cmd binaries go through here).
func (ds *Dataset) SetCheckpointEvery(n uint64) { ds.cfg.CheckpointEvery = n }

// buildOpts resolves the replay options the dataset's experiments use:
// write checkpoints at the configured cadence, resume from whatever the
// sidecar already holds.
func (ds *Dataset) buildOpts() replay.BuildOptions {
	return replay.BuildOptions{CheckpointEvery: ds.cfg.CheckpointEvery}
}

// workers resolves the configured parallelism.
func (ds *Dataset) workers() int {
	if ds.cfg.Workers > 0 {
		return ds.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// feedStudy streams every payment's features into the sharded study.
// Store-backed datasets take the zero-copy payment projection
// (ledgerstore.ScanPayments) with one Feeder per scan worker — no page,
// transaction, or metadata object is ever materialized; in-memory
// datasets feed sequentially (the shard workers still count
// concurrently).
func (ds *Dataset) feedStudy(ctx context.Context, workers int, study *deanon.ParallelStudy) error {
	if store, ok := ds.source.(*ledgerstore.Store); ok {
		feeders := make([]*deanon.Feeder, workers)
		for i := range feeders {
			feeders[i] = study.Feeder()
		}
		return store.ScanPayments(ctx, workers, func(w int, pv *ledger.PaymentView) error {
			feeders[w].Observe(deanon.FromPaymentView(pv))
			return nil
		})
	}
	return ds.source.Pages(func(p *ledger.Page) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				study.Observe(f)
			}
		}
		return nil
	})
}

// Figure3 computes the information gain for the paper's ten resolution
// tuples over the dataset, using the sharded pipeline at the configured
// parallelism.
func (ds *Dataset) Figure3() ([]deanon.RowResult, error) {
	return ds.Figure3Parallel(context.Background(), 0)
}

// Figure3Parallel is Figure3 with explicit cancellation and worker
// count (0 means the dataset's configured parallelism). The results are
// bit-identical to a sequential deanon.Study pass regardless of worker
// count.
func (ds *Dataset) Figure3Parallel(ctx context.Context, workers int) ([]deanon.RowResult, error) {
	if workers < 1 {
		workers = ds.workers()
	}
	study := deanon.NewParallelStudy(deanon.Figure3Rows, deanon.ShardBitsFor(workers))
	defer study.Close()
	if err := ds.feedStudy(ctx, workers, study); err != nil {
		return nil, err
	}
	return study.Results(), nil
}

// FeatureImportance computes the per-feature contribution breakdown
// (alone / dropped IG per feature) plus the full-fingerprint IG, over
// the same parallel pipeline as Figure3.
func (ds *Dataset) FeatureImportance(ctx context.Context, workers int) ([]deanon.FeatureImportance, float64, error) {
	if workers < 1 {
		workers = ds.workers()
	}
	imp := deanon.NewImportanceStudy(deanon.ShardBitsFor(workers))
	defer imp.Close()
	study := imp.Parallel()
	if err := ds.feedStudy(ctx, workers, study); err != nil {
		return nil, 0, err
	}
	return imp.Results(), imp.FullIG(), nil
}

// collectFeatures gathers every payment's features in history order,
// scanning segments in parallel when the dataset is store-backed. The
// parallel path tags each page's features with its sequence and sorts,
// so the result is identical to a sequential scan.
func (ds *Dataset) collectFeatures(ctx context.Context) ([]deanon.Features, error) {
	workers := ds.workers()
	store, ok := ds.source.(*ledgerstore.Store)
	if !ok || workers <= 1 {
		var feats []deanon.Features
		err := ds.source.Pages(func(p *ledger.Page) error {
			for i := range p.Txs {
				if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
					feats = append(feats, f)
				}
			}
			return nil
		})
		return feats, err
	}
	type taggedFeat struct {
		seq uint64
		idx int
		f   deanon.Features
	}
	perWorker := make([][]taggedFeat, workers)
	err := store.ScanPayments(ctx, workers, func(w int, pv *ledger.PaymentView) error {
		perWorker[w] = append(perWorker[w], taggedFeat{
			seq: pv.Seq,
			idx: pv.Index,
			f:   deanon.FromPaymentView(pv),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tagged []taggedFeat
	for _, pw := range perWorker {
		tagged = append(tagged, pw...)
	}
	// (sequence, intra-page index) is unique per payment, so sorting
	// restores exact history order regardless of worker interleaving.
	sort.Slice(tagged, func(i, j int) bool {
		if tagged[i].seq != tagged[j].seq {
			return tagged[i].seq < tagged[j].seq
		}
		return tagged[i].idx < tagged[j].idx
	})
	feats := make([]deanon.Features, 0, len(tagged))
	for _, tf := range tagged {
		feats = append(feats, tf.f)
	}
	return feats, nil
}

// Figure4 returns the currency histogram.
func (ds *Dataset) Figure4() ([]analysis.CurrencyCount, error) {
	c, err := ds.ecosystem()
	if err != nil {
		return nil, err
	}
	return c.CurrencyHistogram(), nil
}

// Figure5Curve is one survival curve of Figure 5.
type Figure5Curve struct {
	Label  string
	Points []analysis.SurvivalPoint
}

// Figure5 returns the survival functions for the paper's featured
// currencies plus the currency-unaware global curve.
func (ds *Dataset) Figure5() ([]Figure5Curve, error) {
	c, err := ds.ecosystem()
	if err != nil {
		return nil, err
	}
	grid := analysis.DefaultSurvivalGrid()
	out := []Figure5Curve{{Label: "Global", Points: c.Survival(amount.Currency{}, true, grid)}}
	for _, cur := range analysis.FeaturedCurrencies() {
		out = append(out, Figure5Curve{Label: cur.String(), Points: c.Survival(cur, false, grid)})
	}
	return out, nil
}

// Figure6 returns the hop histogram (a) and parallel-path histogram (b).
func (ds *Dataset) Figure6() (hops, parallel map[int]int64, err error) {
	c, err := ds.ecosystem()
	if err != nil {
		return nil, nil, err
	}
	return c.HopHistogram(), c.ParallelHistogram(), nil
}

// Figure7 returns the top-k intermediaries with their trust and balance
// profiles. The final network state comes from the generator when
// available, otherwise from replaying the store.
func (ds *Dataset) Figure7(k int) ([]analysis.Intermediary, error) {
	c, err := ds.ecosystem()
	if err != nil {
		return nil, err
	}
	var names analysis.Namer
	if ds.result != nil {
		names = ds.result.Population.Registry()
	}
	top := c.TopIntermediaries(k, names)
	graph := ds.finalGraphSource()
	if graph == nil {
		last, err := ds.lastSeq()
		if err != nil {
			return nil, err
		}
		eng, err := replay.BuildStateOpts(ds.source, last, ds.buildOpts())
		if err != nil {
			return nil, err
		}
		analysis.ProfileTop(top, eng.Graph(), synth.RateEUR)
		return top, nil
	}
	analysis.ProfileTop(top, graph.Engine.Graph(), synth.RateEUR)
	return top, nil
}

func (ds *Dataset) finalGraphSource() *synth.Result { return ds.result }

// OfferConcentration returns the top-k offer shares for the appendix's
// market-maker concentration claim (k ∈ {10, 50, 100}).
func (ds *Dataset) OfferConcentration() (map[int]float64, error) {
	c, err := ds.ecosystem()
	if err != nil {
		return nil, err
	}
	return c.OfferConcentration([]int{10, 50, 100}), nil
}

// TableII runs the market-maker ablation, snapshotting at the given
// fraction of the history (the paper's snapshot sits ~70% through its
// window, past the spam campaigns).
func (ds *Dataset) TableII(snapshotFraction float64) (*replay.Result, error) {
	if snapshotFraction <= 0 || snapshotFraction >= 1 {
		snapshotFraction = 0.7
	}
	last, err := ds.lastSeq()
	if err != nil {
		return nil, err
	}
	snap := uint64(float64(last) * snapshotFraction)
	if snap < 1 {
		snap = 1
	}
	return replay.RunOpts(ds.source, snap, ds.buildOpts())
}

// Mitigation runs the §V wallet-splitting countermeasure study over the
// dataset: the privacy gained and the bootstrapping cost paid when every
// sender splits activity across k wallets, for each k.
func (ds *Dataset) Mitigation(ks []int) ([]deanon.MitigationResult, error) {
	feats, err := ds.collectFeatures(context.Background())
	if err != nil {
		return nil, err
	}
	return deanon.MitigationStudy(feats, ks), nil
}

// IncentiveScenario pairs a label with a reward-economy configuration.
type IncentiveScenario struct {
	Label  string
	Config consensus.IncentiveConfig
	Series []consensus.IncentivePoint
}

// Incentives runs the §IV reward-system extension: Ripple as-is (fees
// destroyed, no reward) against two levels of the paper's proposed
// transaction tax.
func Incentives(epochs int) []IncentiveScenario {
	scenarios := []IncentiveScenario{
		{Label: "no reward (Ripple today)", Config: consensus.IncentiveConfig{
			TaxPerRound: 0, InitialValidators: 13, Epochs: epochs,
		}},
		{Label: "modest tax (0.2/round)", Config: consensus.IncentiveConfig{
			TaxPerRound: 0.2, RoundsPerEpoch: 100_000, OperatingCost: 1000,
			InitialValidators: 13, Epochs: epochs,
		}},
		{Label: "strong tax (1.0/round)", Config: consensus.IncentiveConfig{
			TaxPerRound: 1.0, RoundsPerEpoch: 100_000, OperatingCost: 1000,
			InitialValidators: 13, Epochs: epochs,
		}},
	}
	for i := range scenarios {
		scenarios[i].Series = consensus.SimulateIncentives(scenarios[i].Config)
	}
	return scenarios
}

// SpamCost returns the top fee payers — what the anti-spam fee actually
// charged the spam campaigns.
func (ds *Dataset) SpamCost(k int) ([]analysis.FeePayer, amount.Drops, error) {
	c, err := ds.ecosystem()
	if err != nil {
		return nil, 0, err
	}
	var names analysis.Namer
	if ds.result != nil {
		names = ds.result.Population.Registry()
	}
	return c.TopFeePayers(k, names), c.TotalFees(), nil
}

// ClockUncertainty runs the time-window attack sweep: the fraction of
// payments uniquely de-anonymized by an observer whose clock is only
// accurate to ±Δ, for each Δ. It generalizes Figure 3's Tsc/Tmn/Thr/Tdy
// ladder to a continuous curve.
func (ds *Dataset) ClockUncertainty(deltas []uint32) ([]deanon.WindowPoint, error) {
	w := deanon.NewWindowIndex(deanon.Resolution{
		Amount: deanon.AmountMax, Currency: true, Destination: true,
	})
	payments, err := ds.collectFeatures(context.Background())
	if err != nil {
		return nil, err
	}
	for _, f := range payments {
		w.Add(f)
	}
	return w.UncertaintySweep(payments, deltas), nil
}

// Stats summarizes the dataset for reports.
type Stats struct {
	Payments    int64
	Failed      int64
	MultiHop    int64
	Offers      int64
	ActiveUsers int
	TotalPages  int
}

// Stats scans the dataset.
func (ds *Dataset) Stats() (Stats, error) {
	c, err := ds.ecosystem()
	if err != nil {
		return Stats{}, err
	}
	pages := 0
	if store, ok := ds.source.(*ledgerstore.Store); ok {
		// The sequence index answers the page count from the sidecar (one
		// stat per segment when warm) instead of re-decoding the history.
		ranges, err := store.SegmentRanges()
		if err != nil {
			return Stats{}, err
		}
		for _, sr := range ranges {
			pages += sr.Pages
		}
	} else if err := ds.source.Pages(func(*ledger.Page) error { pages++; return nil }); err != nil {
		return Stats{}, err
	}
	return Stats{
		Payments:    c.Payments(),
		Failed:      c.FailedPayments(),
		MultiHop:    c.MultiHopPayments(),
		Offers:      c.TotalOffers(),
		ActiveUsers: c.ActiveAccounts(),
		TotalPages:  pages,
	}, nil
}
