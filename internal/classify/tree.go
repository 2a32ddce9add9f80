// Package classify implements BINGO!'s hierarchical document classification
// (§2.4): a user-defined topic tree (ontology) with one binary SVM per node,
// top-down classification with per-node feature selection, artificial
// OTHERS nodes for rejected documents, and the run-time meta classifier of
// §3.5 that combines decisions across feature spaces.
package classify

import (
	"fmt"
	"sort"
	"strings"
)

// OthersLabel is the name of the artificial reject node under each parent.
const OthersLabel = "OTHERS"

// RootName is the name of the implicit root (the union of the user's topics).
const RootName = "ROOT"

// Node is one topic in the tree.
type Node struct {
	Name     string
	Path     string // slash-joined path from ROOT, e.g. "ROOT/math/algebra"
	Parent   *Node
	Children []*Node // sorted by name; excludes the virtual OTHERS node
}

// Tree is a topic hierarchy. A single-node tree (root with one child) is the
// special case used for single-topic portals and expert queries.
type Tree struct {
	Root  *Node
	nodes map[string]*Node
}

// NewTree returns a tree holding only ROOT.
func NewTree() *Tree {
	root := &Node{Name: RootName, Path: RootName}
	return &Tree{Root: root, nodes: map[string]*Node{root.Path: root}}
}

// Add inserts a topic given by its path segments below ROOT, creating
// intermediate nodes, and returns the leaf node. Segment names must not be
// empty, contain '/' or collide with the reserved OTHERS label.
func (t *Tree) Add(segments ...string) (*Node, error) {
	cur := t.Root
	for _, seg := range segments {
		if seg == "" || strings.ContainsRune(seg, '/') {
			return nil, fmt.Errorf("classify: invalid topic segment %q", seg)
		}
		if seg == OthersLabel {
			return nil, fmt.Errorf("classify: %q is reserved", OthersLabel)
		}
		path := cur.Path + "/" + seg
		next, ok := t.nodes[path]
		if !ok {
			next = &Node{Name: seg, Path: path, Parent: cur}
			cur.Children = append(cur.Children, next)
			sort.Slice(cur.Children, func(i, j int) bool {
				return cur.Children[i].Name < cur.Children[j].Name
			})
			t.nodes[path] = next
		}
		cur = next
	}
	return cur, nil
}

// Lookup returns the node at path (e.g. "ROOT/math/algebra").
func (t *Tree) Lookup(path string) (*Node, bool) {
	n, ok := t.nodes[path]
	return n, ok
}

// Nodes returns every topic node (excluding ROOT) in depth-first order.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			out = append(out, c)
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// OthersPath returns the reject-node path under parent.
func OthersPath(parentPath string) string { return parentPath + "/" + OthersLabel }

// String renders the tree in the indented style of the paper's Figure 2.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
