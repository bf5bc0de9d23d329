// Package mal implements the MonetDB Assembly Language layer of the
// engine: a linear SSA-style instruction program that the SQL/SciQL
// compiler targets (paper Fig. 2), an interpreter executing those
// instructions against the GDK kernels, and the PLAN textual rendering.
//
// The instruction set mirrors the MAL modules the paper names: `algebra`,
// `group`, `aggr`, `batcalc`, `bat`, `sql`, and the SciQL-specific `array`
// module with the series/filler primitives of §3 plus the cell-fetch and
// tiling kernels.
package mal

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/rel"
	"repro/internal/shape"
	"repro/internal/types"
)

// Arg is an instruction operand: a variable reference (Var >= 0), a scalar
// constant, or an auxiliary compile-time payload (catalog object, shape,
// tile spec, operator name).
type Arg struct {
	Var   int
	Const types.Value
	Aux   any
}

// V returns a variable argument.
func V(v int) Arg { return Arg{Var: v} }

// K returns a scalar constant argument.
func K(v types.Value) Arg { return Arg{Var: -1, Const: v} }

// X returns an auxiliary payload argument.
func X(aux any) Arg { return Arg{Var: -1, Aux: aux} }

// IsVar reports whether the argument is a variable reference.
func (a Arg) IsVar() bool { return a.Var >= 0 }

// String renders the argument in MAL text form.
func (a Arg) String() string {
	if a.IsVar() {
		return fmt.Sprintf("X_%d", a.Var)
	}
	if a.Aux != nil {
		switch x := a.Aux.(type) {
		case *catalog.Table:
			return fmt.Sprintf("\"sys.%s\"", x.Name)
		case *catalog.Array:
			return fmt.Sprintf("\"sys.%s\"", x.Name)
		case shape.Shape:
			parts := make([]string, len(x))
			for i, d := range x {
				parts[i] = d.String()
			}
			return "{" + strings.Join(parts, ", ") + "}"
		case []gdk.TileRange:
			parts := make([]string, len(x))
			for i, t := range x {
				if t.Step > 0 {
					parts[i] = fmt.Sprintf("[%+d:%d:%+d)", t.Lo, t.Step, t.Hi)
				} else {
					parts[i] = fmt.Sprintf("[%+d:%+d)", t.Lo, t.Hi)
				}
			}
			return strings.Join(parts, "")
		case []int:
			parts := make([]string, len(x))
			for i, v := range x {
				parts[i] = fmt.Sprintf("%d", v)
			}
			return "[" + strings.Join(parts, ",") + "]"
		case []bool:
			parts := make([]string, len(x))
			for i, b := range x {
				parts[i] = fmt.Sprintf("%v", b)
			}
			return "[" + strings.Join(parts, ",") + "]"
		case gdk.AggKind:
			return fmt.Sprintf("\"%s\"", string(x))
		case types.Kind:
			return ":" + x.String()
		case string:
			return fmt.Sprintf("%q", x)
		case int:
			return fmt.Sprintf("%d", x)
		default:
			return fmt.Sprintf("%v", x)
		}
	}
	if !a.Const.IsNull() && a.Const.Kind() == types.KindStr {
		return fmt.Sprintf("%q", a.Const.StrVal())
	}
	if a.Const.IsNull() {
		return "nil"
	}
	return a.Const.String()
}

// Instr is one MAL instruction: Rets := Module.Fn(Args...).
type Instr struct {
	Module, Fn string
	Rets       []int
	Args       []Arg
}

// String renders the instruction in MAL text form.
func (in Instr) String() string {
	var sb strings.Builder
	if len(in.Rets) == 1 {
		fmt.Fprintf(&sb, "X_%d := ", in.Rets[0])
	} else if len(in.Rets) > 1 {
		parts := make([]string, len(in.Rets))
		for i, r := range in.Rets {
			parts[i] = fmt.Sprintf("X_%d", r)
		}
		fmt.Fprintf(&sb, "(%s) := ", strings.Join(parts, ", "))
	}
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = a.String()
	}
	fmt.Fprintf(&sb, "%s.%s(%s);", in.Module, in.Fn, strings.Join(args, ", "))
	return sb.String()
}

// Program is a compiled MAL function body plus result metadata.
type Program struct {
	Instrs []Instr
	NVars  int

	// ResultVars are the aligned output column variables, with their names
	// and SciQL dimensional flags.
	ResultVars  []int
	ResultNames []string
	ResultDims  []bool
	ResultKinds []types.Kind
	// ShapeHint is the preserved array shape for array-valued results.
	ShapeHint shape.Shape
	// Write is the UPDATE or DELETE the program feeds, nil for queries:
	// its results are then the written rows' base positions followed by
	// one value column per SET target.
	Write *rel.Write

	// ops and lastUse are set by link, the last step of Compile: ops[i]
	// is the handler that runs instruction i (nil for an unknown one),
	// lastUse[v] the index of the last instruction that uses variable v
	// (-1 for results), after which Run drops it.
	ops     []func(*Ctx, *Instr) error
	lastUse []int32
}

// NewVar allocates a fresh variable.
func (p *Program) NewVar() int {
	v := p.NVars
	p.NVars++
	return v
}

// Emit appends an instruction returning a single fresh variable.
func (p *Program) Emit(module, fn string, args ...Arg) int {
	r := p.NewVar()
	p.Instrs = append(p.Instrs, Instr{Module: module, Fn: fn, Rets: []int{r}, Args: args})
	return r
}

// EmitN appends an instruction with n fresh return variables.
func (p *Program) EmitN(n int, module, fn string, args ...Arg) []int {
	rets := make([]int, n)
	for i := range rets {
		rets[i] = p.NewVar()
	}
	p.Instrs = append(p.Instrs, Instr{Module: module, Fn: fn, Rets: rets, Args: args})
	return rets
}

// String renders the whole program as MAL text (the PLAN statement output).
func (p *Program) String() string {
	var sb strings.Builder
	sb.WriteString("function user.main();\n")
	for _, in := range p.Instrs {
		sb.WriteString("    " + in.String() + "\n")
	}
	parts := make([]string, len(p.ResultVars))
	for i, v := range p.ResultVars {
		name := ""
		if i < len(p.ResultNames) {
			name = p.ResultNames[i]
		}
		if i < len(p.ResultDims) && p.ResultDims[i] {
			name = "[" + name + "]"
		}
		parts[i] = fmt.Sprintf("X_%d as %q", v, name)
	}
	switch {
	case p.Write == nil:
		fmt.Fprintf(&sb, "    sql.resultSet(%s);\n", strings.Join(parts, ", "))
	case p.Write.Delete:
		fmt.Fprintf(&sb, "    sql.delete(\"sys.%s\", X_%d);\n", p.Write.Name(), p.ResultVars[0])
	default:
		parts[0] = fmt.Sprintf("X_%d", p.ResultVars[0])
		fmt.Fprintf(&sb, "    sql.update(\"sys.%s\", %s);\n", p.Write.Name(), strings.Join(parts, ", "))
	}
	sb.WriteString("end user.main;\n")
	return sb.String()
}
