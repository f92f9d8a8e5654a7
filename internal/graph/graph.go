// Package graph provides the weighted-undirected-graph substrate used by
// the leasing extensions: Steiner tree leasing (edges are leased to keep
// terminal pairs connected) and the vertex/edge cover leasing reductions
// that Chapter 3's outlook proposes. It includes adjacency structures,
// Dijkstra shortest paths with per-edge cost overrides, connectivity
// checks, and random graph generators.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Edge is an undirected weighted edge between vertices U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is an immutable undirected weighted graph. Construct with New.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]halfEdge // adjacency: vertex -> (neighbor, edge index)
}

type halfEdge struct {
	to   int
	edge int
}

// New validates the edge list and builds adjacency structures. Self-loops
// and duplicate edges are rejected; weights must be positive and finite.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: need n >= 1, got %d", n)
	}
	g := &Graph{n: n, edges: make([]Edge, len(edges)), adj: make([][]halfEdge, n)}
	seen := map[[2]int]bool{}
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge %d endpoints (%d,%d) outside [0,%d)", i, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: edge %d is a self-loop at %d", i, e.U)
		}
		if !(e.Weight > 0) || math.IsInf(e.Weight, 0) || math.IsNaN(e.Weight) {
			return nil, fmt.Errorf("graph: edge %d weight %v, want positive finite", i, e.Weight)
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		g.edges[i] = Edge{U: u, V: v, Weight: e.Weight}
		g.adj[u] = append(g.adj[u], halfEdge{to: v, edge: i})
		g.adj[v] = append(g.adj[v], halfEdge{to: u, edge: i})
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edge returns the i-th edge (endpoints normalized U < V).
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Incident returns the indices of edges incident to v.
func (g *Graph) Incident(v int) []int {
	out := make([]int, len(g.adj[v]))
	for i, h := range g.adj[v] {
		out[i] = h.edge
	}
	return out
}

// MaxDegree returns the maximum vertex degree (the δ of the vertex-cover
// leasing reduction).
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > best {
			best = d
		}
	}
	return best
}

// ErrDisconnected is returned by path queries with no route.
var ErrDisconnected = errors.New("graph: vertices are disconnected")

// Path is a shortest-path result: the total cost and the edge indices
// along the route.
type Path struct {
	Cost  float64
	Edges []int
}

// ShortestPath runs Dijkstra from src to dst using cost(edgeIndex) as the
// effective edge cost (allowing callers to discount already-leased edges
// to zero and charge lease prices on the rest). cost must return
// non-negative finite values; nil uses the static weights.
func (g *Graph) ShortestPath(src, dst int, cost func(edge int) float64) (Path, error) {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return Path{}, fmt.Errorf("graph: path endpoints (%d,%d) outside [0,%d)", src, dst, g.n)
	}
	if cost == nil {
		cost = func(e int) float64 { return g.edges[e].Weight }
	}
	dist := make([]float64, g.n)
	prevEdge := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	pq := append(make(vertexHeap, 0, g.n), vertexItem{v: src, d: 0})
	for len(pq) > 0 {
		item := pq.pop()
		if done[item.v] {
			continue
		}
		done[item.v] = true
		if item.v == dst {
			break
		}
		for _, h := range g.adj[item.v] {
			if done[h.to] {
				continue
			}
			c := cost(h.edge)
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return Path{}, fmt.Errorf("graph: cost(%d) = %v, want non-negative finite", h.edge, c)
			}
			if nd := item.d + c; nd < dist[h.to] {
				dist[h.to] = nd
				prevEdge[h.to] = h.edge
				pq.push(vertexItem{v: h.to, d: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, ErrDisconnected
	}
	// Reconstruct edge sequence from dst back to src.
	var edges []int
	at := dst
	for at != src {
		e := prevEdge[at]
		edges = append(edges, e)
		if g.edges[e].U == at {
			at = g.edges[e].V
		} else {
			at = g.edges[e].U
		}
	}
	// Reverse into src->dst order.
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return Path{Cost: dist[dst], Edges: edges}, nil
}

// Connected reports whether the whole graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.to] {
				seen[h.to] = true
				count++
				stack = append(stack, h.to)
			}
		}
	}
	return count == g.n
}

type vertexItem struct {
	v int
	d float64
}

// vertexHeap is a binary min-heap on distance. push and pop sift
// exactly as container/heap's Push and Pop do, so equal distances leave
// it in the same order, without boxing every item in an interface.
type vertexHeap []vertexItem

func (h *vertexHeap) push(it vertexItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent; 0 when j is the root
		if i == j || !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *vertexHeap) pop() vertexItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].d < s[j].d {
			j = r
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// RandomConnected generates a connected graph: a random spanning tree plus
// extra random edges up to the requested edge count, with weights uniform
// in [minW, maxW).
func RandomConnected(rng *rand.Rand, n, m int, minW, maxW float64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: need n >= 1, got %d", n)
	}
	if maxW <= minW {
		maxW = minW + 1
	}
	if m < n-1 {
		m = n - 1
	}
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	w := func() float64 { return minW + rng.Float64()*(maxW-minW) }
	seen := map[[2]int]bool{}
	var edges []Edge
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return false
		}
		seen[key] = true
		edges = append(edges, Edge{U: u, V: v, Weight: w()})
		return true
	}
	// Random spanning tree: attach each vertex to a random earlier one.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for len(edges) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	return New(n, edges)
}

// Grid generates an r x c grid graph with unit-jittered weights, a common
// network substrate.
func Grid(rng *rand.Rand, rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid %dx%d invalid", rows, cols)
	}
	var edges []Edge
	id := func(r, c int) int { return r*cols + c }
	w := func() float64 { return 1 + rng.Float64()*0.25 }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1), Weight: w()})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c), Weight: w()})
			}
		}
	}
	return New(rows*cols, edges)
}
