package expr

import "fmt"

// CompileKernel compiles an expression into an evaluator over
// caller-bound variable slices: lookup resolves each column name to a
// slot index, and the returned program reads vars[slot][row] at call
// time. The compiled closures capture no data — one program serves any
// binding of the slots, which is how the executor evaluates expressions
// over per-block column views (resident subslices or pinned buffer-pool
// frames) with block-local rows — and perform no allocation or map
// access per row.
func CompileKernel(e Expr, lookup func(name string) (int, error)) (func(vars [][]float64, row int) float64, error) {
	switch n := e.(type) {
	case Col:
		slot, err := lookup(n.Name)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 { return vars[slot][row] }, nil
	case Const:
		v := n.Value
		return func([][]float64, int) float64 { return v }, nil
	case Add:
		x, y, err := compileKernel2(n.X, n.Y, lookup)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 { return x(vars, row) + y(vars, row) }, nil
	case Sub:
		x, y, err := compileKernel2(n.X, n.Y, lookup)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 { return x(vars, row) - y(vars, row) }, nil
	case Mul:
		x, y, err := compileKernel2(n.X, n.Y, lookup)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 { return x(vars, row) * y(vars, row) }, nil
	case Neg:
		x, err := CompileKernel(n.X, lookup)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 { return -x(vars, row) }, nil
	case Square:
		x, err := CompileKernel(n.X, lookup)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 {
			v := x(vars, row)
			return v * v
		}, nil
	case Abs:
		x, err := CompileKernel(n.X, lookup)
		if err != nil {
			return nil, err
		}
		return func(vars [][]float64, row int) float64 {
			v := x(vars, row)
			if v < 0 {
				return -v
			}
			return v
		}, nil
	default:
		return nil, fmt.Errorf("expr: cannot compile node type %T", e)
	}
}

func compileKernel2(xe, ye Expr, lookup func(name string) (int, error)) (x, y func(vars [][]float64, row int) float64, err error) {
	if x, err = CompileKernel(xe, lookup); err != nil {
		return nil, nil, err
	}
	if y, err = CompileKernel(ye, lookup); err != nil {
		return nil, nil, err
	}
	return x, y, nil
}
