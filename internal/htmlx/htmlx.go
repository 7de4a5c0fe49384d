// Package htmlx is a small, dependency-free HTML parser for discovering a
// conjunctive web form interface: it tokenizes real-world HTML (unquoted
// attributes, unclosed <option>/<tr>/<td>, comments, script bodies),
// builds a DOM-lite tree, and extracts forms, select domains and tables.
// The HTTP connector uses it for form discovery only — reading the search
// form's attribute domains once per target. Result pages, one per query,
// are decoded by formclient in one pass with no tree; its tests keep the
// tree-based result parser as the oracle that decoder must agree with.
package htmlx

import (
	"html"
	"slices"
	"strings"
)

// Node is one element or text node of the parsed tree.
type Node struct {
	// Tag is the lowercase element name; empty for text nodes.
	Tag string
	// Text holds the unescaped text of a text node.
	Text string
	// Attrs holds the element's attributes in source order with lowercase
	// keys and unescaped values.
	Attrs []Attr
	// Children are the node's child nodes in document order.
	Children []*Node
	// Parent is the enclosing element; nil at the root.
	Parent *Node
}

// Attr is one element attribute.
type Attr struct {
	Key, Val string
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute or def when absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Tag == "" }

// Find returns the first node (depth-first, preorder, including n itself)
// satisfying pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	if pred(n) {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(pred); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every node (depth-first, including n) satisfying pred.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if pred(m) {
			out = append(out, m)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// ByTag returns every descendant element with the given tag name.
func (n *Node) ByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.FindAll(func(m *Node) bool { return m.Tag == tag })
}

// ByID returns the first element with id=id, or nil.
func (n *Node) ByID(id string) *Node {
	return n.Find(func(m *Node) bool {
		v, ok := m.Attr("id")
		return ok && v == id
	})
}

// TextContent returns the concatenation of all descendant text, with
// every run of whitespace collapsed to single spaces and the ends trimmed.
func (n *Node) TextContent() string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsText() {
			b.WriteString(m.Text)
			b.WriteByte(' ')
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.Join(strings.Fields(b.String()), " ")
}

// voidElements never have children or end tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements swallow everything until their literal end tag.
var rawTextElements = map[string]bool{"script": true, "style": true, "textarea": true, "title": true}

// impliedEnd maps a tag to the set of open tags it implicitly closes,
// covering the sloppy HTML real sites emit (unclosed <option>, <tr>, <td>,
// <li>, <p>).
var impliedEnd = map[string][]string{
	"option": {"option"},
	"tr":     {"tr", "td", "th"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"li":     {"li"},
	"p":      {"p"},
	"thead":  {"tr", "td", "th"},
	"tbody":  {"tr", "td", "th", "thead"},
}

// Parse builds the tree for an HTML document or fragment. It never fails on
// malformed input: stray end tags are dropped, unterminated constructs are
// closed at end of input, and unknown entities pass through literally.
func Parse(src string) *Node {
	root := &Node{Tag: "#root"}
	stack := []*Node{root}
	open := map[string]int{} // open elements on the stack, by tag
	top := func() *Node { return stack[len(stack)-1] }
	pop := func() {
		open[top().Tag]--
		stack = stack[:len(stack)-1]
	}
	appendText := func(s string) {
		if s == "" {
			return
		}
		t := top()
		t.Children = append(t.Children, &Node{Text: html.UnescapeString(s), Parent: t})
	}
	// closeTag pops the open elements down to the nearest tag element. With
	// none open it ignores the end tag, as browsers do, without scanning the
	// stack: a scan per stray end tag costs quadratic time on deep pages.
	closeTag := func(tag string) {
		for n := open[tag]; n > 0 && open[tag] == n; {
			pop()
		}
	}

	i := 0
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			appendText(src[i:])
			break
		}
		appendText(src[i : i+lt])
		i += lt
		switch {
		case strings.HasPrefix(src[i:], "<!--"):
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				i = len(src)
			} else {
				i += 4 + end + 3
			}
		case strings.HasPrefix(src[i:], "<!"), strings.HasPrefix(src[i:], "<?"):
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i = len(src)
			} else {
				i += end + 1
			}
		case strings.HasPrefix(src[i:], "</"):
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i = len(src)
				break
			}
			tag := strings.ToLower(strings.TrimSpace(src[i+2 : i+end]))
			closeTag(tag)
			i += end + 1
		default:
			tag, attrs, selfClose, next, ok := parseStartTag(src, i)
			if !ok {
				// Lone '<' in text: keep it as literal text.
				appendText("<")
				i++
				continue
			}
			i = next
			// Implied end tags before opening this one.
			for len(stack) > 1 && slices.Contains(impliedEnd[tag], top().Tag) {
				pop()
			}
			n := &Node{Tag: tag, Attrs: attrs, Parent: top()}
			top().Children = append(top().Children, n)
			if selfClose || voidElements[tag] {
				continue
			}
			if rawTextElements[tag] {
				endTag := "</" + tag
				idx := indexFold(src[i:], endTag)
				if idx < 0 {
					n.Children = append(n.Children, &Node{Text: src[i:], Parent: n})
					i = len(src)
					continue
				}
				if idx > 0 {
					n.Children = append(n.Children, &Node{Text: src[i : i+idx], Parent: n})
				}
				gt := strings.IndexByte(src[i+idx:], '>')
				if gt < 0 {
					i = len(src)
				} else {
					i += idx + gt + 1
				}
				continue
			}
			stack = append(stack, n)
			open[tag]++
		}
	}
	return root
}

// indexFold is strings.Index with ASCII case folding on the needle match.
func indexFold(s, substr string) int {
	n := len(substr)
	for i := 0; i+n <= len(s); i++ {
		if strings.EqualFold(s[i:i+n], substr) {
			return i
		}
	}
	return -1
}

// parseStartTag parses "<tag attr=val ...>" beginning at src[i] (which is
// '<'). It returns the lowercase tag, attributes, whether the tag
// self-closes, the index just past '>', and whether this was a plausible
// tag at all.
func parseStartTag(src string, i int) (tag string, attrs []Attr, selfClose bool, next int, ok bool) {
	j := i + 1
	start := j
	for j < len(src) && isTagNameByte(src[j]) {
		j++
	}
	if j == start {
		return "", nil, false, 0, false
	}
	tag = strings.ToLower(src[start:j])
	for {
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		if j >= len(src) {
			return tag, attrs, false, len(src), true
		}
		if src[j] == '>' {
			return tag, attrs, false, j + 1, true
		}
		if src[j] == '/' {
			j++
			for j < len(src) && src[j] != '>' {
				j++
			}
			if j < len(src) {
				j++
			}
			return tag, attrs, true, j, true
		}
		// Attribute name.
		ks := j
		for j < len(src) && !isSpace(src[j]) && src[j] != '=' && src[j] != '>' && src[j] != '/' {
			j++
		}
		key := strings.ToLower(src[ks:j])
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		if j < len(src) && src[j] == '=' {
			j++
			for j < len(src) && isSpace(src[j]) {
				j++
			}
			var val string
			if j < len(src) && (src[j] == '"' || src[j] == '\'') {
				q := src[j]
				j++
				vs := j
				for j < len(src) && src[j] != q {
					j++
				}
				val = src[vs:j]
				if j < len(src) {
					j++
				}
			} else {
				vs := j
				for j < len(src) && !isSpace(src[j]) && src[j] != '>' {
					j++
				}
				val = src[vs:j]
			}
			attrs = append(attrs, Attr{Key: key, Val: html.UnescapeString(val)})
		} else if key != "" {
			attrs = append(attrs, Attr{Key: key, Val: ""})
		}
	}
}

func isTagNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-' || b == ':'
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}
