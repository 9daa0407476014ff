package storage

import "math"

// AggKind enumerates the monotone aggregates supported in recursion
// (paper §2.1, §6.2.1).
type AggKind uint8

const (
	// AggNone marks a non-aggregated relation.
	AggNone AggKind = iota
	// AggMin keeps the minimum value per group.
	AggMin
	// AggMax keeps the maximum value per group.
	AggMax
	// AggCount counts distinct contributors per group (Query 4's
	// count<X> counts the distinct attending friends).
	AggCount
	// AggSum sums one value per distinct contributor per group; a
	// repeated contributor replaces its previous contribution
	// (Query 6's sum<(Y,K)> keyed sum).
	AggSum
)

// String names the aggregate as written in rule heads.
func (k AggKind) String() string {
	switch k {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	default:
		return "none"
	}
}

// aggGroup is the per-key state of an aggregate relation.
type aggGroup struct {
	key Tuple // group-by values
	val Value // current aggregated value
	// contrib tracks per-contributor values for AggSum and presence for
	// AggCount; nil for min/max.
	contrib map[Value]Value
}

// AggRelation stores one row per group key and merges new derivations
// monotonically. The schema's last column is the aggregate output; all
// earlier columns form the group key. For AggSum/AggCount, merges carry
// an explicit contributor value, realizing the paper's pair of index
// structures (group-key index plus (group, contributor) index) as a
// two-level map.
type AggRelation struct {
	schema  *Schema
	kind    AggKind
	valType Type
	eps     float64 // change threshold for float sums (0 = exact)

	buckets map[uint64][]int32
	groups  []aggGroup
	keyLen  int
}

// NewAggRelation returns an empty aggregate relation. The group key is
// the schema prefix; the final column holds the aggregate of the given
// kind.
func NewAggRelation(schema *Schema, kind AggKind) *AggRelation {
	n := schema.Arity()
	return &AggRelation{
		schema:  schema,
		kind:    kind,
		valType: schema.ColType(n - 1),
		buckets: make(map[uint64][]int32),
		keyLen:  n - 1,
	}
}

// Kind returns the aggregate kind.
func (r *AggRelation) Kind() AggKind { return r.kind }

// SetEpsilon sets the minimum absolute change in a float aggregate that
// counts as an update. Non-positive means exact comparison. Programs
// with non-monotone float sums (PageRank) use this to converge.
func (r *AggRelation) SetEpsilon(eps float64) { r.eps = eps }

// Schema returns the relation's typed shape.
func (r *AggRelation) Schema() *Schema { return r.schema }

// Len reports the number of groups held.
func (r *AggRelation) Len() int { return len(r.groups) }

// lookup finds the group index for a key, or -1.
func (r *AggRelation) lookup(key []Value) int {
	h := HashValues(key)
	for _, idx := range r.buckets[h] {
		g := &r.groups[idx]
		eq := true
		for i := range key {
			if g.key[i] != key[i] {
				eq = false
				break
			}
		}
		if eq {
			return int(idx)
		}
	}
	return -1
}

// Get returns the current aggregate for the key.
func (r *AggRelation) Get(key []Value) (Value, bool) {
	idx := r.lookup(key)
	if idx < 0 {
		return 0, false
	}
	return r.groups[idx].val, true
}

// Merge folds a new derivation into the group identified by key. For
// min/max the contributor is ignored. It reports whether the aggregate
// changed and returns the post-merge value.
func (r *AggRelation) Merge(key []Value, v Value, contributor Value) (bool, Value) {
	idx := r.lookup(key)
	if idx < 0 {
		g := aggGroup{key: Tuple(key).Clone()}
		switch r.kind {
		case AggCount:
			g.contrib = map[Value]Value{contributor: 1}
			g.val = IntVal(1)
		case AggSum:
			g.contrib = map[Value]Value{contributor: v}
			g.val = v
		default:
			g.val = v
		}
		h := HashValues(key)
		r.buckets[h] = append(r.buckets[h], int32(len(r.groups)))
		r.groups = append(r.groups, g)
		return true, g.val
	}

	g := &r.groups[idx]
	switch r.kind {
	case AggMin:
		if Compare(v, g.val, r.valType) < 0 {
			g.val = v
			return true, v
		}
		return false, g.val
	case AggMax:
		if Compare(v, g.val, r.valType) > 0 {
			g.val = v
			return true, v
		}
		return false, g.val
	case AggCount:
		if _, seen := g.contrib[contributor]; seen {
			return false, g.val
		}
		g.contrib[contributor] = 1
		g.val = IntVal(g.val.Int() + 1)
		return true, g.val
	case AggSum:
		old, seen := g.contrib[contributor]
		if seen && old == v {
			return false, g.val
		}
		g.contrib[contributor] = v
		if r.valType == TFloat {
			sum := g.val.Float() + v.Float()
			if seen {
				sum -= old.Float()
			}
			prev := g.val.Float()
			g.val = FloatVal(sum)
			if r.eps > 0 && math.Abs(sum-prev) <= r.eps {
				return false, g.val
			}
			return true, g.val
		}
		sum := g.val.Int() + v.Int()
		if seen {
			sum -= old.Int()
		}
		changed := sum != g.val.Int()
		g.val = IntVal(sum)
		return changed, g.val
	default:
		if g.val != v {
			g.val = v
			return true, v
		}
		return false, g.val
	}
}

// Insert merges a tuple by splitting it into key and value.
// The contributor defaults to the aggregate value itself, which gives
// correct semantics when loading materialized rows.
func (r *AggRelation) Insert(t Tuple) bool {
	changed, _ := r.Merge(t[:r.keyLen], t[r.keyLen], t[r.keyLen])
	return changed
}

// Contains reports whether the group exists with a value at least as
// good as the tuple's (for min/max) or exactly equal (otherwise).
func (r *AggRelation) Contains(t Tuple) bool {
	cur, ok := r.Get(t[:r.keyLen])
	if !ok {
		return false
	}
	switch r.kind {
	case AggMin:
		return Compare(cur, t[r.keyLen], r.valType) <= 0
	case AggMax:
		return Compare(cur, t[r.keyLen], r.valType) >= 0
	default:
		return cur == t[r.keyLen]
	}
}

// ForEach visits every group, materialized as key+value, until fn
// returns false.
func (r *AggRelation) ForEach(fn func(Tuple) bool) {
	row := make(Tuple, r.keyLen+1)
	for i := range r.groups {
		g := &r.groups[i]
		copy(row, g.key)
		row[r.keyLen] = g.val
		if !fn(row) {
			return
		}
	}
}

// Snapshot returns every group as a freshly materialized key+value
// row.
func (r *AggRelation) Snapshot() []Tuple {
	out := make([]Tuple, 0, len(r.groups))
	for i := range r.groups {
		g := &r.groups[i]
		row := make(Tuple, r.keyLen+1)
		copy(row, g.key)
		row[r.keyLen] = g.val
		out = append(out, row)
	}
	return out
}
