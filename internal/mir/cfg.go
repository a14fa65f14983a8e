package mir

// CFG holds the control-flow graph of one function: successor and
// predecessor block lists plus a reverse-postorder numbering. ConAir's
// reexecution-point search (§3.2.2) is a backward depth-first walk over
// predecessors, so predecessor lists are the workhorse here.
type CFG struct {
	Succs [][]int
	Preds [][]int
	// RPO is a reverse-postorder of the reachable blocks starting at entry.
	RPO []int
	// Reachable[b] reports whether block b is reachable from entry.
	Reachable []bool
}

// BuildCFG computes the CFG of f.
func BuildCFG(f *Function) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		Succs:     make([][]int, n),
		Preds:     make([][]int, n),
		Reachable: make([]bool, n),
	}
	for bi := range f.Blocks {
		t := f.Blocks[bi].Terminator()
		switch t.Op {
		case OpBr:
			c.Succs[bi] = appendUnique(c.Succs[bi], int(t.Aux))
			c.Succs[bi] = appendUnique(c.Succs[bi], int(t.Else))
		case OpJmp:
			c.Succs[bi] = appendUnique(c.Succs[bi], int(t.Aux))
		case OpRet:
			// no successors
		}
	}
	for bi, ss := range c.Succs {
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], bi)
		}
	}
	// Postorder DFS from entry; reversed gives RPO.
	var post []int
	visited := make([]bool, n)
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		c.Reachable[b] = true
		for _, s := range c.Succs[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(0)
	}
	c.RPO = make([]int, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}
	return c
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// ReachesWithout reports whether block `from` can reach block `to` along
// CFG edges without passing through any block in `barrier`. `from` and
// `to` themselves are not treated as barriers. Used by the inter-procedural
// analysis to reason about paths between function entry and a failure site.
func (c *CFG) ReachesWithout(from, to int, barrier map[int]bool) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(c.Succs))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.Succs[b] {
			if s == to {
				return true
			}
			if !seen[s] && !barrier[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// CallSites returns the positions of every call or spawn of callee fi
// within module m. Used by the inter-procedural recovery analysis to find
// the callers of a function (§4.3).
func CallSites(m *Module, fi int) []Pos {
	var out []Pos
	for cf := range m.Functions {
		f := &m.Functions[cf]
		for bi := range f.Blocks {
			for ii := range f.Blocks[bi].Instrs {
				in := &f.Blocks[bi].Instrs[ii]
				if (in.Op == OpCall || in.Op == OpSpawn) && int(in.Aux) == fi {
					out = append(out, Pos{Fn: cf, Block: bi, Index: ii})
				}
			}
		}
	}
	return out
}
