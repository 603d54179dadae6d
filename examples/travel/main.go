// Travel: the paper's running Example 4/12 — buy a non-refundable
// plane ticket and book a car, where cancel compensates book if the
// purchase falls through.  Runs both the committed and the compensated
// execution on all three schedulers, then the parametrized (§5.1)
// variant for two customers at once.
//
//	go run ./examples/travel
package main

import (
	"fmt"
	"log"

	dce "repro"
)

const spec = `
workflow travel

# (1) initiate book if buy is started
dep init:  ~s_buy + s_book
# (2) if buy commits, it commits after book (buy cannot be compensated)
dep order: ~c_buy + c_book . c_buy
# (3) compensate book by cancel if buy fails to commit
dep comp:  ~c_book + c_buy + s_cancel
# (4) the strengthening the paper discusses at the end of Example 4:
#     cancel happens only when buy never commits
dep only:  ~s_cancel + ~c_buy

event s_buy    site=buy
event c_buy    site=buy
event s_book   site=book triggerable
event c_book   site=book
event s_cancel site=cancel triggerable rejectable
`

func main() {
	runScenario("committed run (buy commits)", "c_buy")
	runScenario("compensated run (buy fails; cancel is triggered)", "~c_buy")
	parametrized()
}

func runScenario(title, buyOutcome string) {
	fmt.Printf("== %s ==\n", title)
	s, err := dce.ParseSpecString(spec)
	if err != nil {
		log.Fatal(err)
	}
	agents := []*dce.AgentScript{
		{ID: "buy", Site: "buy", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_buy"), Think: 10},
			{Sym: dce.MustSymbol(buyOutcome), Think: 40},
		}},
		{ID: "book", Site: "book", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_book"), Think: 30},
			{Sym: dce.MustSymbol("c_book"), Think: 20},
		}},
	}
	for _, kind := range dce.SchedulerKinds() {
		cfg := dce.SpecConfig(s, kind, 1996)
		cfg.Agents = agents
		r, err := dce.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s trace %v  satisfied=%v\n", kind, r.Trace, r.Satisfied)
	}
	fmt.Println()
}

// parametrized instantiates the workflow per customer (Example 12):
// the cid parameter binds when s_buy[cid] occurs.
func parametrized() {
	fmt.Println("== parametrized workflow (Example 12): two customers ==")
	tpl, err := dce.NewTemplate("s_buy[?cid]",
		"~s_buy[?cid] + s_book[?cid]",
		"~c_buy[?cid] + c_book[?cid] . c_buy[?cid]",
		"~c_book[?cid] + c_buy[?cid] + s_cancel[?cid]",
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, cid := range []string{"alice", "bob"} {
		w, binding, err := tpl.Instantiate(dce.MustSymbol("s_buy[" + cid + "]"))
		if err != nil {
			log.Fatal(err)
		}
		c, err := dce.Compile(w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  instance %v: %d dependencies, guard of c_buy[%s] = %s\n",
			binding, len(w.Deps), cid,
			c.GuardOf(dce.MustSymbol("c_buy["+cid+"]")).Key())
	}
	fmt.Println("  the instances share no events: customers never interfere")
}
