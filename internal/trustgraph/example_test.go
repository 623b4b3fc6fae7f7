package trustgraph_test

import (
	"fmt"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/trustgraph"
)

// ExampleGraph reproduces the paper's Figure 1: A trusts B for 10 USD
// and B trusts C for 20 USD, so C can send up to 10 USD to A through B.
func ExampleGraph() {
	g := trustgraph.New()
	a := addr.KeyPairFromSeed(1).AccountID()
	b := addr.KeyPairFromSeed(2).AccountID()
	c := addr.KeyPairFromSeed(3).AccountID()

	_, _ = g.SetTrust(a, b, amount.USD, amount.MustParse("10"))
	_, _ = g.SetTrust(b, c, amount.USD, amount.MustParse("20"))

	// The IOU payment travels opposite to the trust direction: C→B→A.
	fmt.Println("C can send B up to", g.Capacity(c, b, amount.USD), "USD")
	fmt.Println("B can send A up to", g.Capacity(b, a, amount.USD), "USD")

	// Deliver 10 USD from C to A: debt moves along the chain, each flow
	// applied to its pair out of the sender's end.
	cb, ba := g.PairOf(c, b, amount.USD), g.PairOf(b, a, amount.USD)
	_ = cb.ApplyFlow(cb.Lo == c, amount.MustParse("10"))
	_ = ba.ApplyFlow(ba.Lo == b, amount.MustParse("10"))
	fmt.Println("C owes B", g.Owed(b, c, amount.USD), "USD")
	fmt.Println("B owes A", g.Owed(a, b, amount.USD), "USD")
	// Output:
	// C can send B up to 20 USD
	// B can send A up to 10 USD
	// C owes B 10 USD
	// B owes A 10 USD
}
