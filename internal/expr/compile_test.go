package expr

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// testLookup resolves the names of cols to slots in the order given.
func testLookup(cols ...string) func(string) (int, error) {
	return func(name string) (int, error) {
		for slot, c := range cols {
			if c == name {
				return slot, nil
			}
		}
		return 0, fmt.Errorf("no column %q", name)
	}
}

func TestCompileKernelMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 9))
	const rows = 500
	vars := [][]float64{make([]float64, rows), make([]float64, rows)} // a, b
	for i := 0; i < rows; i++ {
		vars[0][i] = rng.NormFloat64() * 10
		vars[1][i] = rng.NormFloat64() * 10
	}
	exprs := []Expr{
		Col{"a"},
		Const{7},
		Add{Col{"a"}, Col{"b"}},
		Sub{Col{"a"}, Const{3}},
		Mul{Col{"a"}, Col{"b"}},
		Neg{Col{"b"}},
		Square{Add{Col{"a"}, Col{"b"}}},
		Abs{Sub{Col{"a"}, Col{"b"}}},
		Square{Sub{Add{Mul{Const{2}, Col{"a"}}, Mul{Const{3}, Col{"b"}}}, Const{1}}},
	}
	for _, e := range exprs {
		kern, err := CompileKernel(e, testLookup("a", "b"))
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for row := 0; row < rows; row += 37 {
			want := e.Eval(map[string]float64{"a": vars[0][row], "b": vars[1][row]})
			if got := kern(vars, row); math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s row %d: %v != %v", e, row, got, want)
			}
		}
	}
}

func TestCompileKernelMissingColumn(t *testing.T) {
	bads := []Expr{
		Col{"missing"},
		Add{Col{"a"}, Col{"missing"}},
		Sub{Col{"missing"}, Col{"a"}},
		Mul{Col{"missing"}, Const{2}},
		Neg{Col{"missing"}},
		Square{Col{"missing"}},
		Abs{Col{"missing"}},
	}
	for _, e := range bads {
		if _, err := CompileKernel(e, testLookup("a")); err == nil {
			t.Errorf("%s: missing column accepted", e)
		}
	}
}

func TestCompileKernelUnknownNode(t *testing.T) {
	if _, err := CompileKernel(bogusExpr{}, testLookup()); err == nil {
		t.Error("unknown node type accepted")
	}
}

type bogusExpr struct{}

func (bogusExpr) Eval(map[string]float64) float64 { return 0 }
func (bogusExpr) Interval(map[string]Box) Box     { return Box{} }
func (bogusExpr) Vars(map[string]bool)            {}
func (bogusExpr) String() string                  { return "bogus" }
