package dagio

// DOT import: a pragmatic subset of the GraphViz language, enough to
// run the task graphs the literature publishes as .dot files:
//
//	digraph cholesky {
//	  node [work=6.1e6, type="gemm"];     // defaults for later nodes
//	  potrf_0 [work=1.0e6, type="potrf", high=true];
//	  potrf_0 -> trsm_1_0 -> gemm_2_1;    // edge chains
//	}
//
// Supported: optional "strict", named/anonymous digraphs, node
// statements with attribute lists, edge chains with "->", "node [...]"
// default-attribute statements, quoted and bare identifiers, //, # and
// /* */ comments, and ; or newline statement separation. Recognized
// node attributes are work, bytes, type and high; other attributes
// (label, shape, color, ...) are ignored so published files import
// unmodified. Undirected graphs, subgraphs and ports are errors — a
// task graph has none of them.
//
// Nodes may be declared implicitly by edges; they inherit the current
// "node [...]" defaults. A node that ends up with no positive work
// fails validation by name, so forgetting work= cannot silently
// produce a zero-cost task.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseDOT parses a DOT digraph into a validated, normalized GraphSpec.
func ParseDOT(data []byte) (*GraphSpec, error) {
	p := &dotParser{src: string(data), line: 1}
	g, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("dagio: parse DOT graph: line %d: %w", p.line, err)
	}
	ng := g.normalized()
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	return ng, nil
}

// dotDefaults holds the attributes a "node [...]" statement applies to
// subsequently declared nodes.
type dotDefaults struct {
	work  float64
	bytes float64
	typ   string
	high  bool
}

type dotParser struct {
	src  string
	pos  int
	line int

	graph    GraphSpec
	index    map[string]int // node id → index in graph.Nodes
	defaults dotDefaults
}

func (p *dotParser) parse() (*GraphSpec, error) {
	p.index = map[string]int{}
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	if tok == "strict" {
		if tok, err = p.next(); err != nil {
			return nil, err
		}
	}
	switch tok {
	case "digraph":
	case "graph":
		return nil, fmt.Errorf("undirected graphs are not task graphs (want digraph)")
	default:
		return nil, fmt.Errorf("expected 'digraph', got %q", tok)
	}
	tok, err = p.next()
	if err != nil {
		return nil, err
	}
	if tok != "{" { // optional graph name
		p.graph.Name = tok
		if tok, err = p.next(); err != nil {
			return nil, err
		}
	}
	if tok != "{" {
		return nil, fmt.Errorf("expected '{', got %q", tok)
	}
	if err := p.parseBody(); err != nil {
		return nil, err
	}
	return &p.graph, nil
}

// parseBody consumes statements until the closing brace.
func (p *dotParser) parseBody() error {
	for {
		tok, err := p.next()
		if err != nil {
			return err
		}
		switch tok {
		case "}":
			if tok, err := p.next(); err == nil {
				return fmt.Errorf("trailing %q after closing brace", tok)
			}
			return nil
		case ";":
			continue
		case "subgraph", "{":
			return fmt.Errorf("subgraphs are not supported")
		case "node", "edge", "graph":
			// Default-attribute statement. "node" defaults seed later
			// declarations; "edge"/"graph" attrs carry nothing a task
			// graph uses, so their lists are parsed and dropped.
			attrs, err := p.parseAttrList()
			if err != nil {
				return err
			}
			if tok == "node" {
				if err := applyAttrs(attrs, &p.defaults); err != nil {
					return err
				}
			}
		case "=":
			return fmt.Errorf("unexpected '='")
		default:
			if err := p.parseNodeOrEdge(tok); err != nil {
				return err
			}
		}
	}
}

// parseNodeOrEdge handles "id [attrs]", "id = value" (graph attribute,
// ignored) and "id -> id -> id [attrs]" statements; first is the
// already-consumed first identifier.
func (p *dotParser) parseNodeOrEdge(first string) error {
	if !validNodeID(first) {
		return fmt.Errorf("invalid node id %q", first)
	}
	tok, err := p.peek()
	if err != nil {
		return err
	}
	if tok == "=" {
		// Graph-level attribute like rankdir=LR: consume and ignore.
		p.mustNext()
		if _, err := p.next(); err != nil {
			return fmt.Errorf("missing value after %s=", first)
		}
		return nil
	}
	chain := []string{first}
	for {
		tok, err = p.peek()
		if err != nil {
			return err
		}
		if tok != "->" {
			break
		}
		p.mustNext()
		id, err := p.next()
		if err != nil {
			return err
		}
		if id == "--" || !validNodeID(id) {
			return fmt.Errorf("invalid node id %q after ->", id)
		}
		chain = append(chain, id)
	}
	if tok == "--" {
		return fmt.Errorf("undirected edges (--) are not supported")
	}
	var attrs map[string]string
	if tok == "[" {
		if attrs, err = p.parseAttrList(); err != nil {
			return err
		}
	}
	if len(chain) == 1 {
		// Node statement. GraphViz merge semantics: a re-declaration
		// updates only the attributes it names, layered over whatever
		// the node already has; a first declaration starts from the
		// current "node [...]" defaults.
		d := p.defaults
		if i, ok := p.index[first]; ok {
			n := p.graph.Nodes[i]
			d = dotDefaults{work: n.Work, bytes: n.Bytes, typ: n.Type, high: n.High}
		}
		if err := applyAttrs(attrs, &d); err != nil {
			return fmt.Errorf("node %q: %w", first, err)
		}
		p.declare(first, d, true)
		return nil
	}
	// Edge statement: attributes describe the edges (weights, styles);
	// task dependencies carry none, so they are dropped.
	for i := 0; i < len(chain)-1; i++ {
		p.declare(chain[i], p.defaults, false)
		p.declare(chain[i+1], p.defaults, false)
		p.graph.Edges = append(p.graph.Edges, Edge{From: chain[i], To: chain[i+1]})
	}
	return nil
}

// declare creates or updates a node. Explicit node statements install
// their (already merged) attributes; implicit (edge-created)
// declarations never overwrite anything.
func (p *dotParser) declare(id string, d dotDefaults, explicit bool) {
	if i, ok := p.index[id]; ok {
		if explicit {
			p.graph.Nodes[i] = Node{ID: id, Work: d.work, Bytes: d.bytes, Type: d.typ, High: d.high}
		}
		return
	}
	p.index[id] = len(p.graph.Nodes)
	p.graph.Nodes = append(p.graph.Nodes, Node{ID: id, Work: d.work, Bytes: d.bytes, Type: d.typ, High: d.high})
}

// parseAttrList consumes "[ k=v, k=v; ... ]" (the '[' may or may not
// have been consumed by the caller via peek) and returns the pairs.
func (p *dotParser) parseAttrList() (map[string]string, error) {
	tok, err := p.next()
	if err != nil {
		return nil, err
	}
	if tok != "[" {
		return nil, fmt.Errorf("expected '[', got %q", tok)
	}
	attrs := map[string]string{}
	for {
		tok, err = p.next()
		if err != nil {
			return nil, err
		}
		if tok == "]" {
			return attrs, nil
		}
		if tok == "," || tok == ";" {
			continue
		}
		key := tok
		if tok, err = p.next(); err != nil {
			return nil, err
		}
		if tok != "=" {
			return nil, fmt.Errorf("expected '=' after attribute %q, got %q", key, tok)
		}
		val, err := p.next()
		if err != nil {
			return nil, err
		}
		if isPunct(val) {
			return nil, fmt.Errorf("missing value for attribute %q", key)
		}
		attrs[key] = val
	}
}

// applyAttrs folds recognized attributes into d; unrecognized ones are
// ignored (cosmetic attributes of published files).
func applyAttrs(attrs map[string]string, d *dotDefaults) error {
	for k, v := range attrs {
		switch k {
		case "work":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad work %q: %w", v, err)
			}
			d.work = f
		case "bytes":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad bytes %q: %w", v, err)
			}
			d.bytes = f
		case "type":
			d.typ = v
		case "high":
			switch v {
			case "true", "1":
				d.high = true
			case "false", "0":
				d.high = false
			default:
				return fmt.Errorf("bad high %q (want true or false)", v)
			}
		}
	}
	return nil
}

// validNodeID rejects tokens that are punctuation or reserved words.
func validNodeID(id string) bool {
	switch id {
	case "", "{", "}", "[", "]", "=", ";", ",", "->", "--",
		"digraph", "graph", "subgraph", "node", "edge", "strict":
		return false
	}
	return true
}

func isPunct(tok string) bool {
	switch tok {
	case "{", "}", "[", "]", "=", ";", ",", "->", "--":
		return true
	}
	return false
}

// mustNext consumes a token the caller already peeked.
func (p *dotParser) mustNext() {
	if _, err := p.next(); err != nil {
		panic("dagio: mustNext after successful peek") // unreachable
	}
}

// peek returns the next token without consuming it.
func (p *dotParser) peek() (string, error) {
	pos, line := p.pos, p.line
	tok, err := p.next()
	p.pos, p.line = pos, line
	return tok, err
}

// next returns the next token: an identifier (bare, numeral or quoted)
// or one of the punctuation tokens. io errors are EOF only.
func (p *dotParser) next() (string, error) {
	if err := p.skipSpace(); err != nil {
		return "", err
	}
	c := p.src[p.pos]
	switch c {
	case '{', '}', '[', ']', '=', ';', ',':
		p.pos++
		return string(c), nil
	case '-':
		if p.pos+1 < len(p.src) {
			switch p.src[p.pos+1] {
			case '>':
				p.pos += 2
				return "->", nil
			case '-':
				p.pos += 2
				return "--", nil
			}
		}
		// Fall through: a leading '-' may start a negative numeral.
	case '"':
		return p.quoted()
	}
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || strings.ContainsRune("_.+-", r) {
			// '-' only continues a token inside numerals ("1e-6");
			// after an identifier character run it would be an arrow.
			if r == '-' && p.pos+1 < len(p.src) && (p.src[p.pos+1] == '>' || p.src[p.pos+1] == '-') {
				break
			}
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("unexpected character %q", string(p.src[p.pos]))
	}
	return p.src[start:p.pos], nil
}

// quoted consumes a double-quoted string with backslash escapes.
func (p *dotParser) quoted() (string, error) {
	var b strings.Builder
	p.pos++ // opening quote
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			return b.String(), nil
		case '\\':
			if p.pos+1 >= len(p.src) {
				return "", fmt.Errorf("unterminated escape in string")
			}
			p.pos++
			b.WriteByte(p.src[p.pos])
			p.pos++
		case '\n':
			return "", fmt.Errorf("newline in quoted string")
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", fmt.Errorf("unterminated quoted string")
}

// skipSpace advances over whitespace and //, #, /* */ comments.
func (p *dotParser) skipSpace() error {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/',
			c == '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*':
			p.pos += 2
			for {
				if p.pos+1 >= len(p.src) {
					return fmt.Errorf("unterminated block comment")
				}
				if p.src[p.pos] == '\n' {
					p.line++
				}
				if p.src[p.pos] == '*' && p.src[p.pos+1] == '/' {
					p.pos += 2
					break
				}
				p.pos++
			}
		default:
			return nil
		}
	}
	return fmt.Errorf("unexpected end of input")
}
