// Quickstart: specify a dependency, synthesize the guards the paper's
// Example 9 derives, and execute the workflow on the distributed
// scheduler.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	dce "repro"
)

func main() {
	// Klein's ordering primitive e < f: if both events occur, e
	// precedes f.  Formalized as ē + f̄ + e·f (paper, Example 3).
	w, err := dce.ParseWorkflow("~e + ~f + e . f")
	if err != nil {
		log.Fatal(err)
	}

	// Compile the declarative specification into guards localized on
	// the individual events — the paper's central move (§4).
	compiled, err := dce.Compile(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("guards synthesized from  ~e + ~f + e . f :")
	for _, eg := range compiled.EventGuards() {
		fmt.Printf("  G(%-2s) = %s\n", eg.Event.Key(), eg.Guard.Key())
	}

	// Execute: two agents at two sites attempt f first, then ē.
	// f parks (its guard ◇ē+□e is not yet true), ē occurs right away,
	// and its announcement enables f — Example 10.
	report, err := dce.Run(dce.RunConfig{
		Workflow:  w,
		Kind:      dce.Distributed,
		Placement: dce.Placement{"e": "site-e", "f": "site-f"},
		Agents: []*dce.AgentScript{
			{ID: "f-agent", Site: "site-f", Steps: []dce.AgentStep{
				{Sym: dce.MustSymbol("f"), Think: 10},
			}},
			{ID: "e-agent", Site: "site-e", Steps: []dce.AgentStep{
				{Sym: dce.MustSymbol("~e"), Think: 4000},
			}},
		},
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrealized trace: %v\n", report.Trace)
	fmt.Printf("every dependency satisfied: %v\n", report.Satisfied)
	fmt.Printf("messages: %d (remote %d), makespan %dµs\n",
		report.Stats.Messages, report.Stats.Remote, report.Makespan)
}
