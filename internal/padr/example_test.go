package padr_test

import (
	"fmt"

	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/topology"
)

// Run the paper's algorithm end to end on a width-2 set.
func ExampleEngine_Run() {
	set := comm.MustParse("((.)(.))")
	tree := topology.MustNew(8)
	engine, err := padr.New(tree, set)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := engine.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("width %d, rounds %d, max units/switch %d\n",
		res.Width, res.Rounds, res.Report.MaxUnits())
	// Output:
	// width 2, rounds 2, max units/switch 2
}

// The two selection rules of the reproduction finding (DESIGN.md §6a).
func ExampleWithSelection() {
	set := comm.MustParse("..(((()(....))))")
	tree := topology.MustNew(16)
	for _, sel := range []padr.Selection{padr.Greedy, padr.Conservative} {
		e, _ := padr.New(tree, set.Clone(), padr.WithSelection(sel))
		res, _ := e.Run()
		fmt.Printf("%s: %d rounds (width %d)\n", sel, res.Rounds, res.Width)
	}
	// Output:
	// greedy: 4 rounds (width 4)
	// conservative: 4 rounds (width 4)
}
