// Package ivm is the incremental view-maintenance plane: it keeps a
// program's IDB fixpoint warm across EDB insert/delete streams instead
// of recomputing it per mutation. The subsystem is three layers:
//
//   - rewrite.go derives three delta programs from the source program:
//     an insertion program (net-new EDB tuples seed the existing
//     semi-naive machinery directly, guarded against re-deriving live
//     tuples by a membership prober over the maintained fixpoint), a
//     counting-DRed over-delete program (what might have lost support),
//     and a re-derivation program (which over-deleted tuples survive
//     through alternative derivations).
//   - index.go maintains per-(predicate, columns) incremental hash
//     indexes over the view's counted fixpoints, so delta programs can
//     seed from small slices of the old fixpoint — the rows that can
//     possibly join the batch — rather than the whole relation.
//   - view.go owns the refresh pipeline: net-effect batching through
//     counted EDB mirrors, the delete → re-derive → insert run
//     sequence, the churn-crossover fallback to full recompute, and
//     cancellation/staleness handling.
package ivm

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/pcg"
	"repro/internal/storage"
)

// Synthetic relation-name suffixes. The "__ivm" namespace is reserved:
// Materialize rejects programs whose relations collide with it.
const (
	insSuffix    = "__ivmins"    // EDB: net-inserted tuples of a batch
	delSuffix    = "__ivmdel"    // EDB: net-deleted tuples / IDB: over-delete delta
	oldSuffix    = "__ivmold"    // EDB: pre-mutation snapshot (aliased, indexes shared)
	newSuffix    = "__ivmnew"    // EDB: post-delete snapshot
	dSuffix      = "__ivmd"      // IDB: insert-phase delta
	redSuffix    = "__ivmred"    // IDB: re-derived survivors
	delsetSuffix = "__ivmdelset" // EDB: tuples actually killed by the over-delete
	liveSuffix   = "__ivmlive"   // virtual: the view's live fixpoint, via prober
	sliceInfix   = "__ivmsl"     // EDB: anchored slice of an old fixpoint
)

// sliceSpec describes one seed slice an incremental refresh must
// compute before running a delta program: the live tuples of Pred
// whose Anchor columns match some batch tuple of Src projected to
// SrcCols. A nil Anchor means no variable is shared between the batch
// atom and the fixpoint atom, so the slice degrades to the full live
// snapshot (counted in RefreshStats.FullSlices).
type sliceSpec struct {
	Name    string
	Pred    string
	Anchor  []int
	Src     string
	SrcCols []int
}

// deltaProgram is one generated program plus the bookkeeping the
// refresh needs around it.
type deltaProgram struct {
	Program *ast.Program
	// Schemas holds the program's synthetic EDB relations, each under
	// its synthetic name; they compile alongside the view's own EDB
	// schemas.
	Schemas map[string]*storage.Schema
	Slices  []sliceSpec
	// Deltas maps each synthetic delta predicate to the original
	// predicate whose change set it computes.
	Deltas map[string]string
}

// rewrite bundles the three generated programs of an eligible view.
type rewrite struct {
	Ins *deltaProgram
	Del *deltaProgram
	Red *deltaProgram
}

// ineligible explains why a program cannot be maintained incrementally
// (the view then falls back to full recompute on every refresh). The
// supported fragment is positive set-semantics Datalog where no rule
// joins two IDB atoms: aggregates would need support-count semantics
// per group, negation breaks the monotone delta decomposition, and a
// second IDB atom would need delta-join variants over the union of old
// and new state that the single-pass slice seeding cannot express.
func ineligible(a *pcg.Analysis) string {
	if len(a.Aggregates) > 0 {
		return "program uses aggregates"
	}
	for name := range a.Schemas {
		if strings.Contains(name, "__ivm") {
			return fmt.Sprintf("relation %q collides with the reserved __ivm namespace", name)
		}
	}
	for _, r := range a.Program.Rules {
		idb := 0
		for _, l := range r.Body {
			switch x := l.(type) {
			case *ast.Negation:
				return "program uses negation"
			case *ast.Atom:
				if !a.EDB[x.Pred] {
					idb++
				}
			}
		}
		if idb > 1 {
			return "a rule joins multiple IDB atoms"
		}
		for _, t := range r.Head.Args {
			if _, bad := t.(*ast.Agg); bad {
				return "program uses aggregates"
			}
		}
	}
	return ""
}

// progBuilder accumulates one generated program: rules, synthetic EDB
// schemas, slice specs, and the delta-predicate map.
type progBuilder struct {
	a       *pcg.Analysis
	schemas map[string]*storage.Schema
	rules   []*ast.Rule
	slices  []sliceSpec
	sliceIx map[string]int
	deltas  map[string]string
}

func newProgBuilder(a *pcg.Analysis) *progBuilder {
	return &progBuilder{
		a:       a,
		schemas: make(map[string]*storage.Schema),
		sliceIx: make(map[string]int),
		deltas:  make(map[string]string),
	}
}

// declare records a synthetic EDB relation carrying pred's schema.
func (b *progBuilder) declare(name, pred string) {
	if _, ok := b.schemas[name]; !ok {
		b.schemas[name] = storage.NewSchema(name, b.a.Schemas[pred].Cols...)
	}
}

// slice interns a seed-slice spec and returns its relation name.
// Identical (pred, anchor, src, srcCols) requests share one slice.
func (b *progBuilder) slice(pred string, anchor []int, src string, srcCols []int) string {
	sig := fmt.Sprintf("%s|%v|%s|%v", pred, anchor, src, srcCols)
	if i, ok := b.sliceIx[sig]; ok {
		return b.slices[i].Name
	}
	name := fmt.Sprintf("%s%s%d", pred, sliceInfix, len(b.slices))
	b.sliceIx[sig] = len(b.slices)
	b.slices = append(b.slices, sliceSpec{Name: name, Pred: pred, Anchor: anchor, Src: src, SrcCols: srcCols})
	b.declare(name, pred)
	return name
}

// delta records that deltaName computes the change set of pred.
func (b *progBuilder) delta(deltaName, pred string) {
	b.deltas[deltaName] = pred
}

// finish returns the program. Delta predicates that were referenced but
// never defined by a rule (a predicate whose only rules are facts, say)
// are declared as empty EDB relations so the program still compiles.
func (b *progBuilder) finish() *deltaProgram {
	defined := make(map[string]bool, len(b.rules))
	for _, r := range b.rules {
		defined[r.Head.Pred] = true
	}
	for _, r := range b.rules {
		for _, at := range r.Atoms() {
			if pred, ok := b.deltas[at.Pred]; ok && !defined[at.Pred] {
				b.declare(at.Pred, pred)
			}
		}
	}
	return &deltaProgram{
		Program: &ast.Program{Rules: b.rules},
		Schemas: b.schemas,
		Slices:  b.slices,
		Deltas:  b.deltas,
	}
}

func mkAtom(pred string, args []ast.Term) *ast.Atom {
	return &ast.Atom{Pred: pred, Args: args}
}

// sharedAnchor computes the join key between a small driver atom and a
// fixpoint atom: for every variable the two share (first occurrence on
// each side), the fixpoint column goes into anchor and the driver
// column into srcCols. Empty results mean no shared variable — the
// slice must be the full fixpoint.
func sharedAnchor(driver, target *ast.Atom) (anchor, srcCols []int) {
	first := map[string]int{}
	for i, t := range driver.Args {
		if v, ok := t.(*ast.Var); ok {
			if _, seen := first[v.Name]; !seen {
				first[v.Name] = i
			}
		}
	}
	used := map[string]bool{}
	for j, t := range target.Args {
		v, ok := t.(*ast.Var)
		if !ok || used[v.Name] {
			continue
		}
		if i, ok2 := first[v.Name]; ok2 {
			anchor = append(anchor, j)
			srcCols = append(srcCols, i)
			used[v.Name] = true
		}
	}
	return anchor, srcCols
}

// conditionsOf returns the rule's non-atom literals in order.
func conditionsOf(r *ast.Rule) []ast.Literal {
	var out []ast.Literal
	for _, l := range r.Body {
		if _, ok := l.(*ast.Atom); !ok {
			out = append(out, l)
		}
	}
	return out
}

// buildIns generates the insertion program. For each source rule and
// each body atom, one variant makes that atom the delta: EDB atoms
// become `pred__ivmins` (the batch's net inserts), the rule's single
// IDB atom becomes either an anchored slice of the old fixpoint (when
// an EDB atom drives) or `pred__ivmd` (the recursive delta). Remaining
// EDB atoms read the canonical post-insert relations, so Δa⋈Δb cross
// terms are covered by the Δa variant. Every variant is guarded with
// `!head__ivmlive(...)`: a derivation already in the live fixpoint is
// neither re-emitted nor re-propagated — its consequences are live
// too. The guard probes the view's counted fixpoint through the
// engine's membership-prober hook, so no snapshot or index of the old
// IDB is built.
func buildIns(a *pcg.Analysis) *deltaProgram {
	b := newProgBuilder(a)
	for _, r := range a.Program.Rules {
		atoms := r.Atoms()
		if len(atoms) == 0 {
			continue // facts and condition-only rules don't react to EDB changes
		}
		conds := conditionsOf(r)
		dHead := mkAtom(r.Head.Pred+dSuffix, r.Head.Args)
		b.delta(dHead.Pred, r.Head.Pred)
		guard := &ast.Negation{Atom: mkAtom(r.Head.Pred+liveSuffix, r.Head.Args)}
		b.declare(guard.Atom.Pred, r.Head.Pred)
		for j, drv := range atoms {
			var body []ast.Literal
			if a.EDB[drv.Pred] {
				ins := drv.Pred + insSuffix
				b.declare(ins, drv.Pred)
				body = append(body, mkAtom(ins, drv.Args))
				for k, other := range atoms {
					if k == j {
						continue
					}
					if a.EDB[other.Pred] {
						body = append(body, mkAtom(other.Pred, other.Args))
						continue
					}
					anchor, srcCols := sharedAnchor(drv, other)
					body = append(body, mkAtom(b.slice(other.Pred, anchor, ins, srcCols), other.Args))
				}
			} else {
				d := drv.Pred + dSuffix
				b.delta(d, drv.Pred)
				body = append(body, mkAtom(d, drv.Args))
				for k, other := range atoms {
					if k != j {
						body = append(body, mkAtom(other.Pred, other.Args))
					}
				}
			}
			body = append(body, conds...)
			body = append(body, guard)
			b.rules = append(b.rules, &ast.Rule{Head: dHead, Body: body})
		}
	}
	return b.finish()
}

// guardTmpl is one prune guard derived from a single-EDB-atom rule of a
// predicate: if that rule still fires for a head tuple after the
// deletes (the negated `rel__ivmnew` probe finds the tuple), the head
// tuple provably keeps support and the over-delete skips it — and,
// transitively, everything derived from it alone.
type guardTmpl struct {
	rel  string
	args []guardArg
}

// guardArg is one argument of an instantiated guard: a position into
// the deleting rule's head (headPos >= 0) or a constant term.
type guardArg struct {
	headPos int
	lit     ast.Term
}

// pruneGuards extracts the guard templates of one predicate. A rule
// qualifies when its head is all distinct variables and its body is a
// single positive EDB atom with no conditions whose variable arguments
// all appear in the head — exactly the shape where "body tuple
// survives" is equivalent to "head tuple still derivable by this
// rule" under positional substitution.
func pruneGuards(a *pcg.Analysis, pred string) []guardTmpl {
	var out []guardTmpl
rules:
	for _, r := range a.Program.Rules {
		if r.Head.Pred != pred || len(r.Body) != 1 {
			continue
		}
		at, ok := r.Body[0].(*ast.Atom)
		if !ok || !a.EDB[at.Pred] {
			continue
		}
		varPos := map[string]int{}
		for i, t := range r.Head.Args {
			v, isVar := t.(*ast.Var)
			if !isVar {
				continue rules
			}
			if _, dup := varPos[v.Name]; dup {
				continue rules
			}
			varPos[v.Name] = i
		}
		g := guardTmpl{rel: at.Pred}
		for _, t := range at.Args {
			if v, isVar := t.(*ast.Var); isVar {
				pos, bound := varPos[v.Name]
				if !bound {
					continue rules // projected-away column: not expressible fully bound
				}
				g.args = append(g.args, guardArg{headPos: pos})
				continue
			}
			g.args = append(g.args, guardArg{headPos: -1, lit: t})
		}
		out = append(out, g)
	}
	return out
}

// instantiate renders a guard template against a deleting rule's head.
func (g guardTmpl) instantiate(head *ast.Atom) *ast.Negation {
	args := make([]ast.Term, len(g.args))
	for i, ga := range g.args {
		if ga.headPos >= 0 {
			args[i] = head.Args[ga.headPos]
		} else {
			args[i] = ga.lit
		}
	}
	return &ast.Negation{Atom: mkAtom(g.rel+newSuffix, args)}
}

// buildDel generates the counting-DRed over-delete program, evaluated
// against the pre-mutation database: deleted EDB tuples arrive as
// `pred__ivmdel`, every other EDB atom reads the `__ivmold` snapshot
// (whose indexes are the previous base's, shared by alias), the rule's
// IDB atom is either a live-fixpoint slice (EDB-driven variants) or
// the recursive `pred__ivmdel` delta. Prune guards negate `__ivmnew`:
// a head tuple with a surviving single-atom derivation is neither
// over-deleted nor cascaded from.
func buildDel(a *pcg.Analysis) *deltaProgram {
	b := newProgBuilder(a)
	guardsFor := map[string][]guardTmpl{}
	for _, r := range a.Program.Rules {
		atoms := r.Atoms()
		if len(atoms) == 0 {
			continue // fact support never depends on the EDB
		}
		conds := conditionsOf(r)
		dHead := mkAtom(r.Head.Pred+delSuffix, r.Head.Args)
		b.delta(dHead.Pred, r.Head.Pred)
		guards, ok := guardsFor[r.Head.Pred]
		if !ok {
			guards = pruneGuards(a, r.Head.Pred)
			guardsFor[r.Head.Pred] = guards
			for _, g := range guards {
				b.declare(g.rel+newSuffix, g.rel)
			}
		}
		for j, drv := range atoms {
			var body []ast.Literal
			if a.EDB[drv.Pred] {
				del := drv.Pred + delSuffix
				b.declare(del, drv.Pred)
				body = append(body, mkAtom(del, drv.Args))
				for k, other := range atoms {
					if k == j {
						continue
					}
					if a.EDB[other.Pred] {
						old := other.Pred + oldSuffix
						b.declare(old, other.Pred)
						body = append(body, mkAtom(old, other.Args))
						continue
					}
					anchor, srcCols := sharedAnchor(drv, other)
					body = append(body, mkAtom(b.slice(other.Pred, anchor, del, srcCols), other.Args))
				}
			} else {
				d := drv.Pred + delSuffix
				b.delta(d, drv.Pred)
				body = append(body, mkAtom(d, drv.Args))
				for k, other := range atoms {
					if k == j {
						continue
					}
					old := other.Pred + oldSuffix
					b.declare(old, other.Pred)
					body = append(body, mkAtom(old, other.Args))
				}
			}
			body = append(body, conds...)
			for _, g := range guards {
				body = append(body, g.instantiate(r.Head))
			}
			b.rules = append(b.rules, &ast.Rule{Head: dHead, Body: body})
		}
	}
	return b.finish()
}

// buildRed generates the re-derivation program: for every source rule,
// the over-deleted tuples (`head__ivmdelset`, the tuples the delete
// pass actually killed) drive a membership-restricted re-evaluation
// against the post-delete database (`__ivmnew` EDB). The rule's IDB
// atom splits into two variants — a slice of the kept (post-kill live)
// fixpoint anchored on the delset's shared variables, and the
// recursive `__ivmred` delta — so survivors re-derived this pass can
// themselves support further re-derivations.
func buildRed(a *pcg.Analysis) *deltaProgram {
	b := newProgBuilder(a)
	for _, r := range a.Program.Rules {
		atoms := r.Atoms()
		conds := conditionsOf(r)
		redHead := mkAtom(r.Head.Pred+redSuffix, r.Head.Args)
		b.delta(redHead.Pred, r.Head.Pred)
		delset := r.Head.Pred + delsetSuffix
		b.declare(delset, r.Head.Pred)
		driver := mkAtom(delset, r.Head.Args)

		var idbAtom *ast.Atom
		for _, at := range atoms {
			if !a.EDB[at.Pred] {
				idbAtom = at
			}
		}
		variants := [][]ast.Literal{nil}
		if idbAtom != nil {
			anchor, srcCols := sharedAnchor(driver, idbAtom)
			variants = [][]ast.Literal{
				{mkAtom(b.slice(idbAtom.Pred, anchor, delset, srcCols), idbAtom.Args)},
				{mkAtom(idbAtom.Pred+redSuffix, idbAtom.Args)},
			}
			b.delta(idbAtom.Pred+redSuffix, idbAtom.Pred)
		}
		for _, idbLit := range variants {
			body := []ast.Literal{driver}
			for _, at := range atoms {
				if at == idbAtom {
					body = append(body, idbLit...)
					continue
				}
				nw := at.Pred + newSuffix
				b.declare(nw, at.Pred)
				body = append(body, mkAtom(nw, at.Args))
			}
			body = append(body, conds...)
			b.rules = append(b.rules, &ast.Rule{Head: redHead, Body: body})
		}
	}
	return b.finish()
}

// buildRewrite generates all three delta programs for an eligible
// analysis.
func buildRewrite(a *pcg.Analysis) *rewrite {
	return &rewrite{Ins: buildIns(a), Del: buildDel(a), Red: buildRed(a)}
}
