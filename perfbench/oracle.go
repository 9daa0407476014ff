package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/datasets"
)

// The oracles below compute each paper query's answer with a direct
// graph algorithm that shares no code with the engine. They stand in for
// internal/naive, whose nested-loop joins take minutes on these inputs;
// oracle_test.go checks each one against internal/naive on small graphs.

type row []int64

// digest is an order-independent fingerprint of a row set.
func digest(rows []row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, v := range r {
			if j > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprint(&b, v)
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replyRows converts a reply relation to rows.
func replyRows(in [][]json.Number) ([]row, error) {
	out := make([]row, len(in))
	for i, r := range in {
		out[i] = make(row, len(r))
		for j, v := range r {
			x, err := v.Int64()
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			out[i][j] = x
		}
	}
	return out, nil
}

func adjacency(edges []datasets.Edge) map[int64][]int64 {
	adj := map[int64][]int64{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	return adj
}

// reachFrom returns every vertex reachable from src by a path of at
// least one edge.
func reachFrom(adj map[int64][]int64, src int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	stack := append([]int64(nil), adj[src]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
		stack = append(stack, adj[v]...)
	}
	return out
}

// tcRows is queries.TC: every (x, y) with a path x →+ y.
func tcRows(edges []datasets.Edge) []row {
	adj := adjacency(edges)
	var out []row
	for src := range adj {
		for _, v := range reachFrom(adj, src) {
			out = append(out, row{src, v})
		}
	}
	return out
}

// ccRows is queries.CC: each vertex with an in- or out-edge gets the least
// vertex that has an out-edge and reaches it (itself included).
func ccRows(edges []datasets.Edge) []row {
	adj := adjacency(edges)
	srcs := make([]int64, 0, len(adj))
	for v := range adj {
		srcs = append(srcs, v)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	label := map[int64]int64{}
	// Sources in increasing order: a vertex's first label is its least.
	// A labelled vertex's successors were labelled by a smaller source
	// already, so the search stops there.
	for _, s := range srcs {
		if _, ok := label[s]; ok {
			continue
		}
		label[s] = s
		stack := append([]int64(nil), adj[s]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := label[v]; ok {
				continue
			}
			label[v] = s
			stack = append(stack, adj[v]...)
		}
	}
	out := make([]row, 0, len(label))
	for v, l := range label {
		out = append(out, row{v, l})
	}
	return out
}

// sgRows is queries.SG, evaluated semi-naively over pairs.
func sgRows(edges []datasets.Edge) []row {
	kids := adjacency(edges)
	type pair struct{ a, b int64 }
	seen := map[pair]bool{}
	var frontier []pair
	add := func(p pair) {
		if !seen[p] {
			seen[p] = true
			frontier = append(frontier, p)
		}
	}
	for _, cs := range kids {
		for _, x := range cs {
			for _, y := range cs {
				if x != y {
					add(pair{x, y})
				}
			}
		}
	}
	for len(frontier) > 0 {
		next := frontier
		frontier = nil
		for _, p := range next {
			for _, x := range kids[p.a] {
				for _, y := range kids[p.b] {
					add(pair{x, y})
				}
			}
		}
	}
	out := make([]row, 0, len(seen))
	for p := range seen {
		out = append(out, row{p.a, p.b})
	}
	return out
}

type distItem struct{ v, d int64 }
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// ssspRows is queries.SSSP: Dijkstra from start over non-negative weights.
func ssspRows(edges []datasets.WEdge, start int64) []row {
	adj := map[int64][]datasets.WEdge{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e)
	}
	dist := map[int64]int64{start: 0}
	h := &distHeap{{start, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range adj[it.v] {
			nd := it.d + e.W
			if d, ok := dist[e.Dst]; !ok || nd < d {
				dist[e.Dst] = nd
				heap.Push(h, distItem{e.Dst, nd})
			}
		}
	}
	out := make([]row, 0, len(dist))
	for v, d := range dist {
		out = append(out, row{v, d})
	}
	return out
}
