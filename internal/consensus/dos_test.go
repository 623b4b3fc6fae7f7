package consensus

import (
	"testing"

	"ripplestudy/internal/addr"
)

// validatedFraction runs `rounds` rounds and returns the fraction that
// reached the validation quorum.
func validatedFraction(t *testing.T, n *Network, rounds int) float64 {
	t.Helper()
	validated := 0
	for i := 0; i < rounds; i++ {
		res, err := n.RunRound(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Validated {
			validated++
		}
	}
	return float64(validated) / float64(rounds)
}

// TestDoSTakedownCollapsesValidation reproduces the paper's §IV threat:
// "a malicious party hijacking or compromising the majority of these
// validators could endanger the whole Ripple system." With 8 trusted
// actives and an 80% quorum, taking down 2 of them halts validation
// entirely — the downed machines still count against the quorum.
func TestDoSTakedownCollapsesValidation(t *testing.T) {
	n := NewNetwork(Config{Seed: 41}, December2015(0).Specs)
	before := validatedFraction(t, n, 150)
	if before < 0.9 {
		t.Fatalf("healthy validation fraction = %.2f, want ≈1", before)
	}
	if got := n.DisableTopActives(2); got != 2 {
		t.Fatalf("disabled %d validators, want 2", got)
	}
	after := validatedFraction(t, n, 150)
	if after != 0 {
		t.Errorf("validation fraction after losing 2/8 trusted = %.2f, want 0 (quorum unreachable)", after)
	}
}

func TestDoSSingleTakedownDegrades(t *testing.T) {
	n := NewNetwork(Config{Seed: 42}, December2015(0).Specs)
	before := validatedFraction(t, n, 200)
	if got := n.DisableTopActives(1); got != 1 {
		t.Fatalf("disabled %d, want 1", got)
	}
	after := validatedFraction(t, n, 200)
	if after >= before {
		t.Errorf("validation did not degrade: %.3f -> %.3f", before, after)
	}
	if after == 0 {
		t.Errorf("one loss of 8 should degrade, not halt (quorum 7 still reachable)")
	}
	t.Logf("validated fraction: %.3f healthy, %.3f with one trusted validator down", before, after)
}

// TestDisabledValidatorsStopSigning: a validator DisableTopActives takes
// down signs nothing afterwards, and asking for more than the trusted
// actives takes down only those.
func TestDisabledValidatorsStopSigning(t *testing.T) {
	n := NewNetwork(Config{Seed: 43}, December2015(0).Specs)
	if got := n.DisableTopActives(2); got != 2 {
		t.Fatalf("disabled %d validators, want 2", got)
	}
	down := make(map[addr.NodeID]bool)
	for _, v := range n.validators {
		if v.disabled {
			down[v.id] = true
		}
	}
	if len(down) != 2 {
		t.Fatalf("%d validators marked disabled, want 2", len(down))
	}
	n.Subscribe(func(ev Event) {
		if ev.Kind == EventValidation && down[ev.Node] {
			t.Errorf("disabled validator %s kept signing", ev.Node.Short())
		}
	})
	if _, err := n.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	if got := n.DisableTopActives(100); got != 6 {
		t.Errorf("disabling every remaining trusted active hit %d, want the other 6", got)
	}
}
