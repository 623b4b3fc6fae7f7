// Command experiments regenerates every table and figure of the paper
// over a synthetic history:
//
//	Figure 2 (a–c)  validator total/valid pages, three collection periods
//	Table I         the amount-rounding specification
//	Figure 3        de-anonymization information gain per resolution
//	Figure 4        most-used currencies
//	Figure 5        survival functions of payment amounts
//	Figure 6 (a,b)  path lengths and parallel paths
//	Table II        delivery without market makers
//	Figure 7 (a–c)  top intermediaries, their trust and balances
//
// It also runs the §V attack itself (feature importance, activation
// clustering, the attack demo on sampled payments) and, over a stored
// history, the store's integrity check. Run with -only to regenerate a
// single experiment (e.g. -only fig3); -store reuses a history that
// ledger-gen or an earlier run wrote, or keeps the one this run
// generates. Without -store the run generates into a temporary store and
// removes it on exit:
//
//	experiments -store ./history -only attack -samples 1000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/core"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
)

// options are the command's flags.
type options struct {
	payments  int
	seed      int64
	rounds    int
	storeDir  string
	only      string
	workers   int
	ckptEvery uint64
	top       int
	samples   int
}

// errUsage marks a flag combination the command refuses to run.
var errUsage = errors.New("usage")

func main() {
	var o options
	flag.IntVar(&o.payments, "payments", 50_000, "synthetic history size (payments)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed (history, Figure 2, attack-demo sampling)")
	flag.IntVar(&o.rounds, "rounds", 2000, "consensus rounds per Figure 2 period")
	flag.StringVar(&o.storeDir, "store", "", "persist/reuse the history in this ledgerstore directory (default: a temporary store, removed on exit)")
	flag.StringVar(&o.only, "only", "", "run a single experiment: fig2|table1|fig3|importance|cluster|attack|fig4|fig5|fig6|table2|fig7|mitigation|incentives|spamcost|overlap|dos|window|attacks|integrity (needs -store)")
	flag.IntVar(&o.workers, "workers", 0, "parallel scan/study workers for the de-anonymization pipeline (0 = GOMAXPROCS); the Table II replay is sequential whatever the value")
	flag.Uint64Var(&o.ckptEvery, "checkpoint-every", 0, "write state-tree checkpoints every N pages during store replays (0 = resume only, never write)")
	flag.IntVar(&o.top, "top", 50, "intermediaries to list (Figure 7)")
	flag.IntVar(&o.samples, "samples", 1000, "observations to attack in the attack demo")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(o options) error {
	want := func(name string) bool { return o.only == "" || o.only == name }
	if o.samples < 1 {
		return fmt.Errorf("%w: -samples must be at least 1", errUsage)
	}
	if o.only == "integrity" && o.storeDir == "" {
		return fmt.Errorf("%w: -only integrity needs -store", errUsage)
	}

	if want("fig2") {
		if err := figure2(o.rounds, o.seed); err != nil {
			return err
		}
	}
	if want("table1") {
		tableI()
	}

	if want("incentives") {
		incentives()
	}
	if want("overlap") {
		overlap()
	}
	if want("dos") {
		if err := dosExperiment(); err != nil {
			return err
		}
	}
	if want("attacks") {
		if err := attackMatrix(); err != nil {
			return err
		}
	}

	switch o.only {
	case "", "integrity", "fig3", "importance", "cluster", "attack", "fig4", "fig5",
		"fig6", "table2", "fig7", "mitigation", "spamcost", "window":
	default:
		return nil
	}

	storeDir := o.storeDir
	if storeDir == "" {
		tmp, err := os.MkdirTemp("", "experiments-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		storeDir = filepath.Join(tmp, "history")
	}
	ds, err := buildOrOpen(o.payments, o.seed, storeDir)
	if err != nil {
		return err
	}
	ds.SetWorkers(o.workers)
	ds.SetCheckpointEvery(o.ckptEvery)
	if want("integrity") && o.storeDir != "" {
		if err := integrity(o.storeDir); err != nil {
			return err
		}
	}
	st, err := ds.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("history: %d pages, %d payments ok (%d failed), %d multi-hop, %d offers, %d active senders\n",
		st.TotalPages, st.Payments, st.Failed, st.MultiHop, st.Offers, st.ActiveUsers)

	steps := []struct {
		name string
		run  func() error
	}{
		{"fig3", func() error { return figure3(ds) }},
		{"importance", func() error { return featureImportance(ds, o.workers) }},
		{"cluster", func() error { return clustering(ds) }},
		{"attack", func() error { return attackDemo(ds, o.samples, o.seed) }},
		{"fig4", func() error { return figure4(ds) }},
		{"fig5", func() error { return figure5(ds) }},
		{"fig6", func() error { return figure6(ds) }},
		{"table2", func() error { return tableII(ds) }},
		{"fig7", func() error { return figure7(ds, o.top) }},
		{"mitigation", func() error { return mitigation(ds) }},
		{"spamcost", func() error { return spamCost(ds) }},
		{"window", func() error { return window(ds) }},
	}
	for _, step := range steps {
		if want(step.name) {
			if err := step.run(); err != nil {
				return err
			}
		}
	}
	return nil
}

// integrity verifies every stored page's checksum, decode and
// parent-hash link, and reports the sequence-index sidecar's health: a
// corrupt or stale sidecar still works — it rebuilds transparently —
// but an operator should know the cache is being thrown away.
func integrity(storeDir string) error {
	store, err := ledgerstore.Open(storeDir)
	if err != nil {
		return err
	}
	rep, err := store.VerifyIntegrity()
	if err != nil {
		return err
	}
	ok := rep.ChainOK && rep.PageErrors == 0
	if !ok {
		fmt.Printf("WARNING: store integrity: chainOK=%v (broken at %d), %d corrupt pages\n",
			rep.ChainOK, rep.BrokenAt, rep.PageErrors)
	}
	if _, err := store.SegmentRanges(); err != nil {
		return err
	}
	if idx := store.IndexReport(); idx.Corrupt {
		fmt.Printf("WARNING: seqindex sidecar corrupt (%s); rebuilt %d segment entries\n",
			idx.Error, idx.Rebuilt)
	} else if !idx.Present {
		fmt.Println("note: seqindex sidecar absent; built fresh")
	} else if idx.Rebuilt > 0 {
		fmt.Printf("note: seqindex sidecar stale; rebuilt %d segment entries\n", idx.Rebuilt)
	}
	if ok {
		fmt.Printf("store integrity ok: %d pages, checksums and parent-hash chain verified\n", rep.Pages)
	}
	return nil
}

func window(ds *core.Dataset) error {
	fmt.Println("\n=== Extension: de-anonymization vs observer clock uncertainty ===")
	deltas := []uint32{0, 30, 300, 3600, 43_200, 604_800}
	points, err := ds.ClockUncertainty(deltas)
	if err != nil {
		return err
	}
	labels := []string{"exact", "±30s", "±5min", "±1h", "±12h", "±1week"}
	for i, pt := range points {
		fmt.Printf("%8s %7.2f%%  %s\n", labels[i], 100*pt.UniqueRate,
			strings.Repeat("#", int(pt.UniqueRate*40)))
	}
	fmt.Println("even a bystander with a sloppy clock de-anonymizes most payments;")
	fmt.Println("wide windows approach the sender-level no-timestamp baseline.")
	return nil
}

func buildOrOpen(payments int, seed int64, storeDir string) (*core.Dataset, error) {
	if storeDir != "" {
		if _, err := os.Stat(storeDir); err == nil {
			fmt.Printf("\n(reusing existing store %s)\n", storeDir)
			return core.OpenDataset(storeDir)
		}
	}
	fmt.Printf("\n=== Building synthetic history: %d payments, seed %d ===\n", payments, seed)
	return core.BuildDataset(core.Config{Payments: payments, Seed: seed, StoreDir: storeDir})
}

// bar renders a log-scaled ASCII bar.
func bar(n, max int64) string {
	if n <= 0 || max <= 0 {
		return ""
	}
	w := int(40 * math.Log10(float64(n)+1) / math.Log10(float64(max)+1))
	return strings.Repeat("#", w)
}

func figure2(rounds int, seed int64) error {
	fmt.Printf("=== Figure 2: validator pages, three 2-week periods (scaled to %d rounds) ===\n", rounds)
	reports, err := core.Figure2(rounds, seed)
	if err != nil {
		return err
	}
	for _, rep := range reports {
		fmt.Println()
		if err := rep.WriteTable(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("summary: %d validators observed, %d active (≥50%% of busiest), %d with zero valid pages\n",
			len(rep.Validators), rep.ActiveCount(0.5), rep.ZeroValidCount())
	}
	// §IV's churn finding: "only 9 (over a total of 70 validators seen)"
	// are active contributors in all three periods.
	fmt.Printf("churn: %d recurring active contributors (≥5 %% of busiest) in all three periods, of %d validators observed (paper: 9 of 70)\n",
		len(monitor.RecurringActives(reports, 0.05)), monitor.TotalObserved(reports))
	return nil
}

func tableI() {
	fmt.Println("\n=== Table I: rounding resolutions per currency-strength group ===")
	for _, row := range core.TableI() {
		fmt.Println("  " + row)
	}
}

func figure3(ds *core.Dataset) error {
	fmt.Println("\n=== Figure 3: information gain (unique-fingerprint fraction) ===")
	rows, err := ds.Figure3()
	if err != nil {
		return err
	}
	for _, r := range rows {
		pct := 100 * r.IG
		fmt.Printf("%-16s %6.2f%%  (%d unique of %d)  %s\n",
			r.Resolution, pct, r.Unique, r.Total, strings.Repeat("#", int(pct/2.5)))
	}
	return nil
}

// featureImportance ranks the four fingerprint features by how much
// information gain each carries alone and how much dropping it costs.
func featureImportance(ds *core.Dataset, workers int) error {
	imp, fullIG, err := ds.FeatureImportance(context.Background(), workers)
	if err != nil {
		return err
	}
	fmt.Printf("\nFeature importance (full-resolution IG %.2f%%), strongest first:\n", 100*fullIG)
	fmt.Printf("  %-12s %12s %12s %12s\n", "feature", "alone", "dropped", "marginal")
	for _, fi := range imp {
		fmt.Printf("  %-12s %11.2f%% %11.2f%% %11.2f%%\n",
			fi.Feature, 100*fi.Alone, 100*fi.Dropped, 100*(fullIG-fi.Dropped))
	}
	return nil
}

// clustering links accounts activated by the same funder (the paper's
// Appendix D / related-work [10] heuristic).
func clustering(ds *core.Dataset) error {
	clusterer := deanon.NewClusterer()
	if err := ds.Source().Pages(clusterer.Page); err != nil {
		return err
	}
	clusters := clusterer.Clusters(2)
	fmt.Printf("\nActivation clustering: %d multi-account clusters", len(clusters))
	if len(clusters) > 0 {
		fmt.Printf("; largest links %d accounts through %s",
			len(clusters[0].Accounts), clusters[0].Activator.Short())
	}
	fmt.Println()
	fmt.Println("(de-anonymizing any member exposes the whole cluster's history)")
	return nil
}

// attackDemo builds the attacker's index at full resolution, then
// reservoir-samples payments and queries each with the sender blinded.
func attackDemo(ds *core.Dataset, samples int, seed int64) error {
	res := deanon.Figure3Rows[0] // ⟨Am;Tsc;C;D⟩
	idx := deanon.NewIndex(res)
	var reservoir []deanon.Features
	rng := rand.New(rand.NewSource(seed))
	n := 0
	err := ds.Source().Pages(func(p *ledger.Page) error {
		for i := range p.Txs {
			f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i])
			if !ok {
				continue
			}
			idx.Add(f)
			n++
			if len(reservoir) < samples {
				reservoir = append(reservoir, f)
			} else if j := rng.Intn(n); j < samples {
				reservoir[j] = f
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	unique, hit := 0, 0
	for _, obs := range reservoir {
		truth := obs.Sender
		blinded := obs
		blinded.Sender = [20]byte{}
		cands := idx.Candidates(blinded)
		if len(cands) == 1 {
			unique++
			if cands[0] == truth {
				hit++
			}
		}
	}
	fmt.Printf("\nAttack demo at %s over %d sampled observations:\n", res, len(reservoir))
	fmt.Printf("  uniquely identified: %d (%.1f%%); all unique identifications correct: %v\n",
		unique, 100*float64(unique)/float64(len(reservoir)), unique == hit)
	fmt.Println("\nAnyone who overhears a single payment can, with this probability,")
	fmt.Println("link it to the sender's account — and thus to the account's entire")
	fmt.Println("past and future financial history on the public ledger.")
	return nil
}

func figure4(ds *core.Dataset) error {
	fmt.Println("\n=== Figure 4: most-used currencies (successful payments) ===")
	hist, err := ds.Figure4()
	if err != nil {
		return err
	}
	limit := 20
	if len(hist) < limit {
		limit = len(hist)
	}
	max := hist[0].Payments
	for _, h := range hist[:limit] {
		fmt.Printf("%-4s %9d  %s\n", h.Currency, h.Payments, bar(h.Payments, max))
	}
	if len(hist) > limit {
		fmt.Printf("... and %d more currencies\n", len(hist)-limit)
	}
	return nil
}

func figure5(ds *core.Dataset) error {
	fmt.Println("\n=== Figure 5: survival functions of payment amounts ===")
	curves, err := ds.Figure5()
	if err != nil {
		return err
	}
	// Header: one column per decade.
	fmt.Printf("%-7s", "curve")
	for _, p := range curves[0].Points {
		fmt.Printf(" %6.0e", p.Amount)
	}
	fmt.Println()
	for _, c := range curves {
		fmt.Printf("%-7s", c.Label)
		for _, p := range c.Points {
			fmt.Printf(" %6.3f", p.Fraction)
		}
		fmt.Println()
	}
	return nil
}

func figure6(ds *core.Dataset) error {
	hops, parallel, err := ds.Figure6()
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 6(a): payment paths per intermediate-hop count ===")
	printIntHist(hops)
	fmt.Println("\n=== Figure 6(b): payments per parallel-path count ===")
	printIntHist(parallel)
	return nil
}

func printIntHist(h map[int]int64) {
	keys := make([]int, 0, len(h))
	var max int64
	for k, v := range h {
		keys = append(keys, k)
		if v > max {
			max = v
		}
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("%3d %9d  %s\n", k, h[k], bar(h[k], max))
	}
}

func tableII(ds *core.Dataset) error {
	fmt.Println("\n=== Table II: delivery without Market Makers ===")
	res, err := ds.TableII(0.7)
	if err != nil {
		return err
	}
	fmt.Printf("(snapshot at page %d; %d market makers and their offers removed)\n",
		res.SnapshotSeq, res.RemovedMarketMakers)
	fmt.Printf("%-16s %10s %10s %14s\n", "Category", "Submitted", "Delivered", "Delivery rate")
	fmt.Printf("%-16s %10d %10d %13.1f%%\n", "Cross-currency", res.Cross.Submitted, res.Cross.Delivered, 100*res.Cross.Rate())
	fmt.Printf("%-16s %10d %10d %13.1f%%\n", "Single-currency", res.Single.Submitted, res.Single.Delivered, 100*res.Single.Rate())
	total := res.Total()
	fmt.Printf("%-16s %10d %10d %13.1f%%\n", "Total", total.Submitted, total.Delivered, 100*total.Rate())
	return nil
}

func mitigation(ds *core.Dataset) error {
	fmt.Println("\n=== Extension: wallet-splitting countermeasure (§V discussion) ===")
	rows, err := ds.Mitigation([]int{1, 2, 4, 8, 16})
	if err != nil {
		return err
	}
	fmt.Printf("%8s %12s %12s %14s %16s %12s\n",
		"wallets", "unique-rate", "exposure", "extra lines", "reserve (XRP)", "linkable")
	for _, r := range rows {
		fmt.Printf("%8d %11.2f%% %11.2f%% %14d %16.0f %12d\n",
			r.Wallets, 100*r.UniqueRate, 100*r.Exposure,
			r.ExtraTrustLines, r.ExtraReserveXRP, r.LinkableAccounts)
	}
	fmt.Println("splitting caps per-observation damage (~1/k) but never stops the attack,")
	fmt.Println("and the trust-line bootstrap cost grows linearly — the paper's argument.")
	return nil
}

func incentives() {
	fmt.Println("\n=== Extension: validator reward system (§IV proposal) ===")
	for _, sc := range core.Incentives(100) {
		last := sc.Series[len(sc.Series)-1]
		fmt.Printf("%-26s -> %3d validators at equilibrium, quorum fault tolerance %d\n",
			sc.Label, last.Validators, last.FaultTolerance)
	}
	fmt.Println("a transaction tax funds validator entry; without one the population")
	fmt.Println("decays to the subsidized R1-R5 floor the paper worries about.")
}

func overlap() {
	fmt.Println("\n=== Extension: UNL overlap vs fork safety (the [7]/[8] analyses) ===")
	overlaps := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	fmt.Printf("%8s %10s %10s %14s\n", "overlap", "fork-rate", "stalls", "feasible(80%)")
	for _, res := range consensus.OverlapSweep(30, 0.8, overlaps, 20_000, 1) {
		fmt.Printf("%7.0f%% %9.1f%% %10d %14v\n",
			100*res.Config.Overlap, 100*res.ForkRate, res.StallRounds, res.ForkPossible)
	}
	fmt.Println("with the 80% quorum, UNLs overlapping more than 40% cannot fork —")
	fmt.Println("the safety margin behind \"an increase of the agreement majority\".")
}

func dosExperiment() error {
	fmt.Println("\n=== Extension: validator takedown (§IV's DoS concern) ===")
	fmt.Printf("%10s %18s %18s\n", "taken down", "validated before", "validated after")
	for _, k := range []int{0, 1, 2, 3} {
		net := consensus.NewNetwork(consensus.Config{Seed: 99}, consensus.December2015(0).Specs)
		before := runValidated(net, 200)
		net.DisableTopActives(k)
		after := runValidated(net, 200)
		fmt.Printf("%10d %17.1f%% %17.1f%%\n", k, 100*before, 100*after)
	}
	fmt.Println("with 8 trusted actives and the 80% quorum, losing 2 halts the ledger:")
	fmt.Println("\"a malicious party hijacking or compromising the majority of these")
	fmt.Println(" validators could endanger the whole Ripple system.\"")
	return nil
}

// attackMatrix grades the collection pipeline's detectors against the
// Byzantine scenario engine's ground truth: for every adversary class it
// runs a scenario, feeds the event stream to a monitor collector, and
// compares what actually happened with what the detector flagged. The
// last columns give the SISSLE-style message and modeled-latency cost of
// each attack relative to the benign baseline.
func attackMatrix() error {
	fmt.Println("\n=== Extension: adversarial consensus — attacks vs. the collection pipeline ===")
	const rounds = 100
	cases := []struct {
		name   string
		attack consensus.AttackSpec
	}{
		{"benign baseline", consensus.AttackSpec{}},
		{"1 equivocator", consensus.AttackSpec{Equivocators: 1}},
		{"1 censor", consensus.AttackSpec{Censors: 1}},
		{"1 delayed proposer", consensus.AttackSpec{Delayers: 1}},
		{"3 delayed proposers", consensus.AttackSpec{Delayers: 3}},
		{"overlap 0.2 (sub-bound)", consensus.AttackSpec{Partition: &consensus.PartitionSpec{Overlap: 0.2}}},
		{"overlap 0.8 (safe)", consensus.AttackSpec{Partition: &consensus.PartitionSpec{Overlap: 0.8}}},
	}
	fmt.Printf("%-24s %28s %41s %9s %8s %9s\n",
		"", "ground truth", "detector", "verdict", "msgs/rd", "lat/rd")
	fmt.Printf("%-24s %7s %6s %6s %6s %7s %6s %6s %6s %6s %6s %9s %8s %9s\n",
		"attack", "equiv", "forks", "stalls", "censor",
		"equiv", "forks", "stalls", "censor", "starv", "late", "", "", "")
	for _, tc := range cases {
		col := monitor.NewCollector()
		sc := consensus.ScenarioConfig{
			Name: tc.name, Rounds: rounds, Seed: 5,
			Attack:  tc.attack,
			OnEvent: col.Record,
		}
		res, err := consensus.RunScenario(sc)
		if err != nil {
			return err
		}
		s := col.Detector().Summary()
		verdict := "benign"
		if s.Attacked() {
			verdict = "ATTACK"
		}
		fmt.Printf("%-24s %7d %6d %6d %6d %7d %6d %6d %6d %6d %6d %9s %8.0f %7dms\n",
			tc.name, res.Equivocations, res.ForkRounds, res.StallRounds, res.CensoredRounds,
			s.Equivocations, s.ForkedSequences, s.StallAlarms, s.SuspectedCensoredTxs, s.StarvedTxs, s.LateValidations,
			verdict, res.MeanMsgs, res.MeanLatency.Milliseconds())
	}
	fmt.Println("every adversary class trips a detector, but Figure 2 alone never names the")
	fmt.Println("equivocator: its double-signed pages file it under a benign laggard class —")
	fmt.Println("the gap between the paper's availability census and a safety monitor.")
	fmt.Println("the censor and delayer rows split on the proposal diff: only the censor's")
	fmt.Println("victims count as censored; a delayer's starved traffic is flagged as the")
	fmt.Println("liveness failure it is, not as targeted censorship.")
	return nil
}

func runValidated(net *consensus.Network, rounds int) float64 {
	validated := 0
	for i := 0; i < rounds; i++ {
		res, err := net.RunRound(nil)
		if err != nil {
			return 0
		}
		if res.Validated {
			validated++
		}
	}
	return float64(validated) / float64(rounds)
}

func spamCost(ds *core.Dataset) error {
	fmt.Println("\n=== Extension: what the anti-spam fee charged the spammers ===")
	top, total, err := ds.SpamCost(8)
	if err != nil {
		return err
	}
	fmt.Printf("total fees destroyed: %s drops (%s XRP)\n", amount.FormatDrops(total), total)
	for _, fp := range top {
		fmt.Printf("  %-24s %12d drops (%.1f%%)\n", fp.Name, fp.Fees, 100*fp.Share)
	}
	return nil
}

func figure7(ds *core.Dataset, k int) error {
	fmt.Printf("\n=== Figure 7: the %d most frequent intermediaries ===\n", k)
	top, err := ds.Figure7(k)
	if err != nil {
		return err
	}
	conc, err := ds.OfferConcentration()
	if err != nil {
		return err
	}
	fmt.Printf("(offer concentration: top-10 %.0f%%, top-50 %.0f%%, top-100 %.0f%%)\n",
		100*conc[10], 100*conc[50], 100*conc[100])
	fmt.Printf("%-24s %8s %12s %14s %14s %14s\n",
		"account", "gateway", "times-hop", "trust-recv(€)", "trust-given(€)", "balance(€)")
	for _, it := range top {
		gw := ""
		if it.Gateway {
			gw = "yes"
		}
		fmt.Printf("%-24s %8s %12d %14.3g %14.3g %14.3g\n",
			it.Name, gw, it.TimesIntermediate,
			it.Profile.TrustReceived, it.Profile.TrustGiven, it.Profile.NetBalance)
	}
	return nil
}
