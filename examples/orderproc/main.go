// Orderproc: an order-processing workflow of the kind the paper's
// introduction motivates — autonomous systems (order entry, inventory,
// payment, shipping) coordinated only through declarative intertask
// dependencies, with compensation when payment fails.
//
// Dependencies:
//
//   - inventory is reserved only for placed orders,
//
//   - payment may be captured only after the reservation committed,
//
//   - shipping requires captured payment (and ships after capture),
//
//   - if the reservation committed but payment never captures, the
//     reservation is released (compensation),
//
//   - an order that ships is never released (exclusion).
//
//     go run ./examples/orderproc
package main

import (
	"fmt"
	"log"

	dce "repro"
)

const spec = `
workflow orderproc

dep reserve_after_place: ~s_reserve + s_place
dep pay_after_reserve:   ~c_pay + c_reserve . c_pay
dep ship_needs_pay:      ~s_ship + c_pay . s_ship
dep compensate:          ~c_reserve + c_pay + s_release
dep no_release_if_ship:  ~s_ship + ~s_release

event s_place   site=orders
event s_reserve site=warehouse triggerable
event c_reserve site=warehouse
event c_pay     site=payments
event s_ship    site=shipping  triggerable
event s_release site=warehouse triggerable rejectable
`

func main() {
	fmt.Println("== order processing: payment succeeds ==")
	run([]*dce.AgentScript{
		{ID: "orders", Site: "orders", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_place"), Think: 10},
		}},
		{ID: "warehouse", Site: "warehouse", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_reserve"), Think: 25},
			{Sym: dce.MustSymbol("c_reserve"), Think: 15},
		}},
		{ID: "payments", Site: "payments", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("c_pay"), Think: 60},
		}},
		{ID: "shipping", Site: "shipping", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_ship"), Think: 80},
		}},
	})

	fmt.Println("\n== order processing: payment fails → reservation released ==")
	run([]*dce.AgentScript{
		{ID: "orders", Site: "orders", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_place"), Think: 10},
		}},
		{ID: "warehouse", Site: "warehouse", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("s_reserve"), Think: 25},
			{Sym: dce.MustSymbol("c_reserve"), Think: 15},
		}},
		{ID: "payments", Site: "payments", Steps: []dce.AgentStep{
			{Sym: dce.MustSymbol("~c_pay"), Think: 60}, // card declined
		}},
	})
}

func run(agents []*dce.AgentScript) {
	s, err := dce.ParseSpecString(spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, kind := range dce.SchedulerKinds() {
		cfg := dce.SpecConfig(s, kind, 7)
		cfg.Agents = agents
		r, err := dce.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if !r.Satisfied || len(r.Unresolved) > 0 {
			status = fmt.Sprintf("BAD (unresolved %v)", r.Unresolved)
		}
		fmt.Printf("  %-20s %s\n    trace %v\n", kind, status, r.Trace)
	}
}
