// Package schema implements COMA's internal schema representation:
// rooted directed acyclic graphs whose nodes are schema elements
// (relational tables and columns, XML elements and attributes) connected
// by directed links of different kinds, e.g. containment and referential
// relationships (Do & Rahm, VLDB 2002, Section 3).
//
// Schemas imported from external sources (relational DDL, XML Schema) are
// converted into this format, on which all match algorithms operate.
// Schema elements are identified by their paths: sequences of nodes
// following containment links from the root. Shared fragments — a node
// reachable from the root via more than one containment chain — yield
// multiple paths for which match candidates are determined independently.
package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// LinkKind distinguishes the directed link types of the schema graph.
type LinkKind int

const (
	// Containment links connect an element to its structural children
	// (table → column, complex element → sub-element). Paths follow
	// containment links only.
	Containment LinkKind = iota
	// Reference links model referential relationships such as foreign
	// keys and XSD type references. They do not contribute to paths but
	// are available to structural matchers.
	Reference
)

// String returns the link kind name.
func (k LinkKind) String() string {
	switch k {
	case Containment:
		return "containment"
	case Reference:
		return "reference"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Kind classifies the origin of a schema element. It is informational:
// matchers rely on names, types and structure, not on the element kind.
type Kind int

const (
	// ElemUnknown marks elements without a recorded origin.
	ElemUnknown Kind = iota
	// ElemSchema is the root node representing the schema itself.
	ElemSchema
	// ElemTable is a relational table.
	ElemTable
	// ElemColumn is a relational column.
	ElemColumn
	// ElemComplex is an XML element with complex content.
	ElemComplex
	// ElemSimple is an XML element or attribute with simple content.
	ElemSimple
)

// String returns the element kind name.
func (k Kind) String() string {
	switch k {
	case ElemSchema:
		return "schema"
	case ElemTable:
		return "table"
	case ElemColumn:
		return "column"
	case ElemComplex:
		return "complex"
	case ElemSimple:
		return "simple"
	default:
		return "unknown"
	}
}

// Node is a schema element: a vertex of the schema graph. A node may be
// the child of several parents (shared fragment); path enumeration then
// produces one path per distinct containment chain.
type Node struct {
	// Name is the element name as it appears in the source schema.
	Name string
	// TypeName is the declared data type, e.g. "VARCHAR(200)" or
	// "xsd:string". Empty for inner elements without a simple type.
	TypeName string
	// Kind records the element's origin.
	Kind Kind
	// Annotations carries free-form source metadata (e.g. "primaryKey").
	Annotations map[string]string

	children []*Node
	refs     []*Node
	parents  []*Node
}

// NewNode returns a node with the given name.
func NewNode(name string) *Node { return &Node{Name: name} }

// AddChild appends child to n's containment children and records n as a
// parent of child. Adding the same child twice is an error surfaced by
// Schema.Validate (duplicate edge), not here, to keep builders simple.
func (n *Node) AddChild(child *Node) {
	n.children = append(n.children, child)
	child.parents = append(child.parents, n)
}

// AddRef records a referential link from n to target (e.g. foreign key).
func (n *Node) AddRef(target *Node) { n.refs = append(n.refs, target) }

// Children returns the containment children in insertion order.
// The returned slice must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Refs returns the referential link targets in insertion order.
// The returned slice must not be modified.
func (n *Node) Refs() []*Node { return n.refs }

// Parents returns the nodes that contain n. The returned slice must not
// be modified.
func (n *Node) Parents() []*Node { return n.parents }

// IsLeaf reports whether n has no containment children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// Annotation returns the value recorded under key, or "".
func (n *Node) Annotation(key string) string {
	if n.Annotations == nil {
		return ""
	}
	return n.Annotations[key]
}

// SetAnnotation records a key/value pair on the node.
func (n *Node) SetAnnotation(key, value string) {
	if n.Annotations == nil {
		n.Annotations = make(map[string]string)
	}
	n.Annotations[key] = value
}

// Schema is a rooted DAG of schema elements. The zero value is not
// usable; construct with New.
type Schema struct {
	// Name identifies the schema (e.g. "PO1"); it doubles as the root
	// node's name and as the repository key.
	Name string
	// Root is the synthetic root node representing the schema.
	Root *Node

	// paths caches the enumeration; invalidated by Invalidate. Atomic
	// so concurrent first uses (two requests analyzing one uncached
	// schema) race-free agree on an enumeration.
	paths atomic.Pointer[[]Path]
	// version counts Invalidate calls: every structural mutation is
	// (per the Invalidate contract) followed by one, so consumers
	// caching schema-derived state (analysis.SchemaIndex) compare the
	// version they captured at build time against Version() instead of
	// re-enumerating paths to detect staleness. Atomic because cache
	// maintenance legally reads one schema's version while an
	// unrelated schema is being matched (e.g. the engine-scoped column
	// cache pruning stale entries) — mutating a schema during ITS own
	// match remains forbidden.
	version atomic.Int64
}

// New returns an empty schema whose root node carries the given name.
func New(name string) *Schema {
	root := &Node{Name: name, Kind: ElemSchema}
	return &Schema{Name: name, Root: root}
}

// Invalidate discards cached derived state (path enumeration) and
// bumps the schema's mutation version. Call it after structurally
// modifying the graph — including in-place node edits (renames, type
// changes) that leave the path count intact: the version bump is what
// lets index caches detect such edits reliably.
func (s *Schema) Invalidate() {
	s.paths.Store(nil)
	s.version.Add(1)
}

// Version returns the schema's mutation counter; it increases on every
// Invalidate. A cached artifact built at version v is stale iff
// Version() != v (assuming mutations honor the Invalidate contract).
func (s *Schema) Version() int64 { return s.version.Load() }

// Paths enumerates all element paths of the schema in depth-first,
// insertion order: every sequence of nodes from the root following
// containment links, excluding the bare root itself. Shared fragments
// yield one path per containment chain. The result is cached.
func (s *Schema) Paths() []Path {
	if p := s.paths.Load(); p != nil {
		return *p
	}
	var out []Path
	var walk func(prefix []*Node, n *Node)
	walk = func(prefix []*Node, n *Node) {
		cur := make([]*Node, len(prefix)+1)
		copy(cur, prefix)
		cur[len(prefix)] = n
		out = append(out, Path{nodes: cur})
		for _, c := range n.children {
			walk(cur, c)
		}
	}
	for _, c := range s.Root.children {
		walk(nil, c)
	}
	// A concurrent first call may have stored its own enumeration
	// first; both are equal, so either serves.
	s.paths.CompareAndSwap(nil, &out)
	return out
}

// LeafPaths returns the paths whose terminal node is a leaf.
func (s *Schema) LeafPaths() []Path {
	var out []Path
	for _, p := range s.Paths() {
		if p.Leaf().IsLeaf() {
			out = append(out, p)
		}
	}
	return out
}

// InnerPaths returns the paths whose terminal node has children.
func (s *Schema) InnerPaths() []Path {
	var out []Path
	for _, p := range s.Paths() {
		if !p.Leaf().IsLeaf() {
			out = append(out, p)
		}
	}
	return out
}

// Nodes returns the distinct nodes reachable from the root via
// containment links, in first-visit depth-first order.
func (s *Schema) Nodes() []*Node {
	seen := make(map[*Node]bool)
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, c := range s.Root.children {
		walk(c)
	}
	return out
}

// FindPath returns the path with the given dotted string form, or false.
func (s *Schema) FindPath(dotted string) (Path, bool) {
	for _, p := range s.Paths() {
		if p.String() == dotted {
			return p, true
		}
	}
	return Path{}, false
}

// Validate checks the structural invariants of the schema graph:
// the containment relation must be acyclic, every node reachable from
// the root, no node may contain the same child twice, and every element
// must have a non-empty name. It returns the first violation found.
func (s *Schema) Validate() error {
	if s.Root == nil {
		return fmt.Errorf("schema %q: nil root", s.Name)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Node]int)
	var visit func(n *Node, trail []string) error
	visit = func(n *Node, trail []string) error {
		if n.Name == "" {
			return fmt.Errorf("schema %q: unnamed node under %s", s.Name, strings.Join(trail, "."))
		}
		switch color[n] {
		case grey:
			return fmt.Errorf("schema %q: containment cycle through %q (via %s)", s.Name, n.Name, strings.Join(trail, "."))
		case black:
			return nil // shared fragment: fine in a DAG
		}
		color[n] = grey
		dup := make(map[*Node]bool)
		for _, c := range n.children {
			if dup[c] {
				return fmt.Errorf("schema %q: node %q contains child %q twice", s.Name, n.Name, c.Name)
			}
			dup[c] = true
			if err := visit(c, append(trail, n.Name)); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	return visit(s.Root, nil)
}

// String renders the schema as an indented containment tree, expanding
// shared fragments at every occurrence; handy in tests and the CLI.
func (s *Schema) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		if n.TypeName != "" {
			b.WriteString(" : ")
			b.WriteString(n.TypeName)
		}
		b.WriteByte('\n')
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(s.Root, 0)
	return b.String()
}

// SortChildren recursively orders every node's children by name. The
// importers preserve source order; tests use this for canonical output.
func (s *Schema) SortChildren() {
	seen := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		sort.SliceStable(n.children, func(i, j int) bool {
			return n.children[i].Name < n.children[j].Name
		})
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.Root)
	s.Invalidate()
}
