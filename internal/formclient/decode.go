package formclient

import (
	"bytes"
	"fmt"
	"html"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hdsampler/internal/hiddendb"
)

// decodeResultPage reads one result page into a hiddendb.Result plus the
// next-page link when the site paginates (empty on the last or only
// page). It makes one pass over body and builds no DOM: it tracks the
// open elements the way a lenient HTML parser would (implied end tags,
// stray end tags, raw-text elements, unterminated markup), picks out the
// first elements with ids status, count, next and noresults, and decodes
// the rows of the first table with id results straight into one backing
// array per page for the tuples, their values and their numeric payloads.
//
// Rows are decoded unless the page overflows and wantRows is false: then
// the answer carries no rows, and the page is not rejected for their
// contents. Once the status marker shows such a page, the rest of it is
// only scanned for the markers.
func decodeResultPage(schema *hiddendb.Schema, body []byte, wantRows bool) (*hiddendb.Result, string, error) {
	d := decoders.Get().(*pageDecoder)
	defer d.release()
	*d = pageDecoder{schema: schema, src: body, wantRows: wantRows, count: hiddendb.CountAbsent,
		stack: d.stack[:0], rows: rowSet{meta: d.rows.meta[:0]}}
	if err := d.scan(); err != nil {
		return nil, "", err
	}
	if !d.seenStatus {
		return nil, "", fmt.Errorf("%w: missing status marker", ErrPageFormat)
	}
	res := &hiddendb.Result{Overflow: d.overflow, Count: d.count}
	if !d.seenTable {
		if !d.seenNoResults && res.Overflow {
			return nil, "", fmt.Errorf("%w: overflow page without results table", ErrPageFormat)
		}
		return res, d.next, nil
	}
	if res.Overflow && !wantRows {
		return res, d.next, nil
	}
	tuples, err := d.rows.tuples(schema)
	if err != nil {
		return nil, "", err
	}
	res.Tuples = tuples
	return res, d.next, nil
}

// decoders recycles the decoders' scratch — the element stack and the
// per-row bookkeeping — across pages.
var decoders = sync.Pool{New: func() any { return new(pageDecoder) }}

// release drops the decoder's references into the page and returns it to
// the pool.
func (d *pageDecoder) release() {
	clear(d.stack[:cap(d.stack)])
	clear(d.rows.meta[:cap(d.rows.meta)])
	*d = pageDecoder{stack: d.stack[:0], rows: rowSet{meta: d.rows.meta[:0]}}
	decoders.Put(d)
}

// pageDecoder is decodeResultPage's scan state.
type pageDecoder struct {
	schema   *hiddendb.Schema
	src      []byte
	wantRows bool

	// The page markers, each read off the first element carrying its id.
	seenStatus, seenCount, seenNext, seenNoResults, seenTable bool
	overflow                                                  bool
	count                                                     int
	next                                                      string

	// skipRows is set once the page is known to overflow with nobody
	// wanting its rows: from then on the scan keeps no element stack.
	skipRows bool

	stack     []frame // open elements, innermost last
	openCells int     // results cells among the open elements
	rows      rowSet
}

// frame is one open element.
type frame struct {
	tag  []byte  // the name as written in the page
	kind tagKind // the name's kind, for the few tags the tree rules name
	role role
	row  int // row index, for row and cell frames
	cell int // cell index within its row, for cell frames
	text cellText
}

// role marks the open elements that make up the results table.
type role uint8

const (
	roleNone  role = iota
	roleTable      // the results table
	roleRow        // a row whose nearest enclosing table is the results table
	roleCell       // a td or th directly inside such a row
)

// scan walks the page once, feeding text to open cells and tags to the
// element stack and the marker checks.
func (d *pageDecoder) scan() error {
	src := d.src
	i := 0
	for i < len(src) {
		lt := bytes.IndexByte(src[i:], '<')
		if lt < 0 {
			d.addText(src[i:], true)
			break
		}
		d.addText(src[i:i+lt], true)
		i += lt
		rest := src[i:]
		var second byte
		if len(rest) > 1 {
			second = rest[1]
		}
		switch {
		case second == '!' && bytes.HasPrefix(rest, []byte("<!--")):
			end := bytes.Index(rest[4:], []byte("-->"))
			if end < 0 {
				i = len(src)
			} else {
				i += 4 + end + 3
			}
		case second == '!' || second == '?':
			end := bytes.IndexByte(rest, '>')
			if end < 0 {
				i = len(src)
			} else {
				i += end + 1
			}
		case second == '/':
			end := bytes.IndexByte(rest, '>')
			if end < 0 {
				i = len(src)
				break
			}
			d.endTag(rest[2:end])
			i += end + 1
		default:
			next, err := d.startTag(i)
			if err != nil {
				return err
			}
			if next < 0 {
				// A lone '<' in text is literal text.
				d.addText(rest[:1], true)
				i++
				continue
			}
			i = next
		}
	}
	d.popTo(0) // unterminated elements close at end of input
	return nil
}

// tagAttrs holds the first occurrence of each attribute the decoder reads.
type tagAttrs struct {
	id, overflow, count, href attrVal
}

type attrVal struct {
	val []byte
	ok  bool
}

// note records one attribute, keeping only the first of each name.
// Attribute names match case-insensitively.
func (a *tagAttrs) note(key, val []byte) {
	var dst *attrVal
	switch {
	case lowerIs(key, "id"):
		dst = &a.id
	case lowerIs(key, "data-overflow"):
		dst = &a.overflow
	case lowerIs(key, "data-count"):
		dst = &a.count
	case lowerIs(key, "href"):
		dst = &a.href
	default:
		return
	}
	if !dst.ok {
		*dst = attrVal{val: val, ok: true}
	}
}

// is reports whether the attribute is present with the (unescaped) value
// want.
func (v attrVal) is(want string) bool {
	if bytes.IndexByte(v.val, '&') >= 0 {
		return v.ok && html.UnescapeString(string(v.val)) == want
	}
	return v.ok && string(v.val) == want
}

// string returns the unescaped value.
func (v attrVal) string() string {
	if bytes.IndexByte(v.val, '&') >= 0 {
		return html.UnescapeString(string(v.val))
	}
	return string(v.val)
}

// bytes returns the unescaped value; it allocates only when the value
// holds a character reference.
func (v attrVal) bytes() []byte {
	if bytes.IndexByte(v.val, '&') >= 0 {
		return []byte(html.UnescapeString(string(v.val)))
	}
	return v.val
}

// atoi is strconv.Atoi without the error value Atoi allocates for text
// that is not a number (a header cell, a label).
func atoi(b []byte) (int, bool) {
	digits := b
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(string(b))
	return n, err == nil
}

// startTag decodes the start tag at src[i] (a '<') and returns the index
// just past it, or -1 when the '<' opens no tag.
func (d *pageDecoder) startTag(i int) (int, error) {
	src := d.src
	j := i + 1
	for j < len(src) && isTagNameByte(src[j]) {
		j++
	}
	if j == i+1 {
		return -1, nil
	}
	tag := src[i+1 : j]
	var attrs tagAttrs
	selfClose := false
	for {
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		if j >= len(src) {
			break
		}
		if src[j] == '>' {
			j++
			break
		}
		if src[j] == '/' {
			for j < len(src) && src[j] != '>' {
				j++
			}
			if j < len(src) {
				j++
			}
			selfClose = true
			break
		}
		ks := j
		for j < len(src) && !isSpace(src[j]) && src[j] != '=' && src[j] != '>' && src[j] != '/' {
			j++
		}
		key := src[ks:j]
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		if j < len(src) && src[j] == '=' {
			j++
			for j < len(src) && isSpace(src[j]) {
				j++
			}
			vs := j
			var val []byte
			if j < len(src) && (src[j] == '"' || src[j] == '\'') {
				q := src[j]
				j++
				vs = j
				for j < len(src) && src[j] != q {
					j++
				}
				val = src[vs:j]
				if j < len(src) {
					j++
				}
			} else {
				for j < len(src) && !isSpace(src[j]) && src[j] != '>' {
					j++
				}
				val = src[vs:j]
			}
			attrs.note(key, val)
		} else if len(key) > 0 {
			attrs.note(key, nil)
		}
	}

	kind := kindOf(tag)
	isResults, err := d.markers(kind, &attrs)
	if err != nil {
		return 0, err
	}
	if !d.skipRows {
		d.open(tag, kind, isResults, selfClose, j)
	}
	if kind.rawText() && !selfClose {
		// The element's body is text up to its end tag.
		end := indexEndTag(src[j:], tag)
		if end < 0 {
			d.addText(src[j:], false)
			return len(src), nil
		}
		d.addText(src[j:j+end], false)
		gt := bytes.IndexByte(src[j+end:], '>')
		if gt < 0 {
			return len(src), nil
		}
		return j + end + gt + 1, nil
	}
	return j, nil
}

// markers reads the page markers off a new element, reporting whether it
// is the results table.
func (d *pageDecoder) markers(kind tagKind, a *tagAttrs) (bool, error) {
	if !a.id.ok {
		return false, nil
	}
	switch {
	case !d.seenStatus && a.id.is("status"):
		d.seenStatus = true
		switch {
		case a.overflow.is("true"):
			d.overflow = true
			d.skipRows = !d.wantRows
		case a.overflow.is("false"):
		default:
			return false, fmt.Errorf("%w: bad overflow marker %q", ErrPageFormat, a.overflow.string())
		}
	case !d.seenCount && a.id.is("count"):
		d.seenCount = true
		if a.count.ok {
			n, ok := atoi(a.count.bytes())
			if !ok {
				return false, fmt.Errorf("%w: bad count %q", ErrPageFormat, a.count.string())
			}
			d.count = n
		}
	case !d.seenNext && a.id.is("next"):
		d.seenNext = true
		d.next = a.href.string()
	case a.id.is("noresults"):
		d.seenNoResults = true
	case !d.seenTable && kind == tagTable && a.id.is("results"):
		d.seenTable = true
		return true, nil
	}
	return false, nil
}

// open applies a new element to the element stack: the end tags it
// implies, its role in the results table, and — unless it is void,
// self-closed or raw text — its push. end is the offset just past the
// start tag.
func (d *pageDecoder) open(tag []byte, kind tagKind, isResults, selfClose bool, end int) {
	if closes := kind.closes(); closes != 0 {
		for len(d.stack) > 0 && closes&(1<<d.stack[len(d.stack)-1].kind) != 0 {
			d.popTo(len(d.stack) - 1)
		}
	}
	f := frame{tag: tag, kind: kind}
	switch {
	case isResults:
		f.role = roleTable
		d.rows.alloc(d.schema.NumAttrs(), countRowTags(d.src[end:]))
	case kind == tagTR && d.inResultsTable():
		f.role = roleRow
		f.row = d.rows.add()
	case (kind == tagTD || kind == tagTH) && len(d.stack) > 0 && d.stack[len(d.stack)-1].role == roleRow:
		f.role = roleCell
		f.row = d.stack[len(d.stack)-1].row
		f.cell = d.rows.addCell(f.row, kind == tagTH)
	}
	if selfClose || kind == tagVoid || kind.rawText() {
		if f.role == roleCell {
			d.rows.closeCell(d.schema, &f) // a childless cell: empty text
		}
		return
	}
	if f.role == roleCell {
		d.openCells++
	}
	d.stack = append(d.stack, f)
}

// inResultsTable reports whether the nearest open table is the results
// table.
func (d *pageDecoder) inResultsTable() bool {
	for i := len(d.stack) - 1; i >= 0; i-- {
		if d.stack[i].kind == tagTable {
			return d.stack[i].role == roleTable
		}
	}
	return false
}

// endTag closes the innermost open element with the given name, and every
// element opened inside it; a stray end tag is ignored.
func (d *pageDecoder) endTag(name []byte) {
	if d.skipRows {
		return
	}
	var lower string
	ascii := isASCII(name)
	if ascii {
		name = bytes.TrimSpace(name)
	} else {
		lower = strings.ToLower(strings.TrimSpace(string(name)))
	}
	for i := len(d.stack) - 1; i >= 0; i-- {
		tag := d.stack[i].tag
		if ascii && bytes.EqualFold(tag, name) || !ascii && lowerIs(tag, lower) {
			d.popTo(i)
			return
		}
	}
}

// popTo closes the open elements from the innermost down to depth i.
func (d *pageDecoder) popTo(i int) {
	for k := len(d.stack) - 1; k >= i; k-- {
		if f := &d.stack[k]; f.role == roleCell {
			d.openCells--
			d.rows.closeCell(d.schema, f)
		}
	}
	d.stack = d.stack[:i]
}

// addText feeds one text node to every open results cell: a cell's text
// is the text of all its descendants. unescape is false for the body of a
// raw-text element, which holds no character references.
func (d *pageDecoder) addText(seg []byte, unescape bool) {
	if d.openCells == 0 || d.skipRows || isBlank(seg) {
		return
	}
	for i := range d.stack {
		if d.stack[i].role == roleCell {
			d.stack[i].text.add(seg, unescape)
		}
	}
}

// cellText accumulates a cell's text as a browser's textContent would
// show it with whitespace collapsed: its text nodes joined, every run of
// whitespace folded into one space, the ends trimmed.
type cellText struct {
	raw  []byte // the text while it is one plain run of the page (the common case)
	buf  []byte // otherwise every text node so far, expanded, space-separated
	slow bool   // buf holds the text
}

// add appends one non-blank text node.
func (t *cellText) add(seg []byte, unescape bool) {
	if !t.slow && t.raw == nil && isPlain(seg, unescape) {
		t.raw = seg
		return
	}
	if !t.slow {
		t.buf, t.raw, t.slow = append(t.buf, t.raw...), nil, true
	}
	t.buf = append(t.buf, ' ')
	if unescape {
		t.buf = append(t.buf, html.UnescapeString(string(seg))...)
	} else {
		t.buf = append(t.buf, seg...)
	}
}

// bytes returns the collapsed text.
func (t *cellText) bytes() []byte {
	if t.slow {
		return []byte(strings.Join(strings.Fields(string(t.buf)), " "))
	}
	return t.raw
}

// rowSet holds the results table's rows in document order, decoded as
// their cells close. Values and numeric payloads live in one backing
// array each, m per row.
type rowSet struct {
	m    int
	vals []int
	nums []float64
	meta []rowMeta
}

// rowMeta is what a row's tuple cannot hold until the table is complete.
type rowMeta struct {
	id      int
	cells   int
	allTH   bool
	badAttr int    // first attribute whose cell did not decode; -1 when none
	badText []byte // that cell's text
}

// alloc sizes the set for at most n rows.
func (rs *rowSet) alloc(m, n int) {
	rs.m = m
	rs.vals = make([]int, 0, n*m)
	rs.nums = make([]float64, 0, n*m)
	rs.meta = slices.Grow(rs.meta[:0], n)
}

// add opens a new row and returns its index.
func (rs *rowSet) add() int {
	rs.meta = append(rs.meta, rowMeta{id: -1, allTH: true, badAttr: -1})
	rs.vals = extend(rs.vals, rs.m)
	rs.nums = extend(rs.nums, rs.m)
	return len(rs.meta) - 1
}

// extend lengthens s by n zero elements, within its capacity when it has
// room (alloc sized it for every row the page can hold).
func extend[T any](s []T, n int) []T {
	return append(slices.Grow(s, n), make([]T, n)...)
}

// addCell registers a new cell of row r and returns its index.
func (rs *rowSet) addCell(r int, th bool) int {
	m := &rs.meta[r]
	m.allTH = m.allTH && th
	m.cells++
	return m.cells - 1
}

// closeCell decodes a finished cell: the first is the item link carrying
// the row's ID ("#17"; -1 when absent), then one cell per attribute.
func (rs *rowSet) closeCell(schema *hiddendb.Schema, f *frame) {
	meta := &rs.meta[f.row]
	text := f.text.bytes()
	switch c := f.cell; {
	case c == 0:
		if id, ok := atoi(bytes.TrimPrefix(text, []byte("#"))); ok {
			meta.id = id
		}
	case c <= rs.m && meta.badAttr < 0:
		a := c - 1
		v, x, ok := decodeValue(&schema.Attrs[a], text)
		if !ok {
			meta.badAttr, meta.badText = a, text
			return
		}
		rs.vals[f.row*rs.m+a] = v
		rs.nums[f.row*rs.m+a] = x
	}
}

// tuples validates the rows and returns the data rows as tuples: rows
// without cells are skipped, and a first row of header cells only is the
// header. Every other row needs exactly one cell per attribute plus the
// item link.
func (rs *rowSet) tuples(schema *hiddendb.Schema) ([]hiddendb.Tuple, error) {
	m := rs.m
	var out []hiddendb.Tuple
	header := false
	for r := range rs.meta {
		meta := &rs.meta[r]
		if meta.cells == 0 {
			continue
		}
		if meta.allTH && !header && len(out) == 0 {
			header = true
			continue
		}
		if meta.cells != m+1 {
			return nil, fmt.Errorf("%w: row %d has %d cells, want %d", ErrPageFormat, len(out), meta.cells, m+1)
		}
		if meta.badAttr >= 0 {
			return nil, fmt.Errorf("row %d: %w", len(out), valueError(&schema.Attrs[meta.badAttr], meta.badText))
		}
		if out == nil {
			out = make([]hiddendb.Tuple, 0, len(rs.meta)-r)
		}
		d := len(out)
		copy(rs.vals[d*m:], rs.vals[r*m:(r+1)*m])
		copy(rs.nums[d*m:], rs.nums[r*m:(r+1)*m])
		out = append(out, hiddendb.Tuple{
			ID:   meta.id,
			Vals: rs.vals[d*m : (d+1)*m : (d+1)*m],
			Nums: rs.nums[d*m : (d+1)*m : (d+1)*m],
		})
	}
	return out, nil
}

// decodeValue converts one attribute cell's text to the attribute's
// domain index plus the raw numeric value (NaN unless the attribute is
// numeric and the cell shows a number). A numeric cell may also show its
// bucket label.
func decodeValue(attr *hiddendb.Attribute, text []byte) (int, float64, bool) {
	if attr.Kind == hiddendb.KindNumeric {
		if raw, err := strconv.ParseFloat(string(text), 64); err == nil {
			b := attr.BucketOf(raw)
			return b, raw, b >= 0
		}
	}
	for i, v := range attr.Values {
		if v == string(text) {
			return i, math.NaN(), true
		}
	}
	return 0, 0, false
}

// valueError explains why decodeValue rejected a cell.
func valueError(attr *hiddendb.Attribute, text []byte) error {
	if attr.Kind == hiddendb.KindNumeric {
		if raw, err := strconv.ParseFloat(string(text), 64); err == nil {
			return fmt.Errorf("%w: value %g outside buckets of %q", ErrPageFormat, raw, attr.Name)
		}
	}
	return fmt.Errorf("%w: unknown label %q for attribute %q", ErrPageFormat, text, attr.Name)
}

// tagKind classifies the element names the tree rules single out.
type tagKind uint8

const (
	tagOther tagKind = iota
	tagVoid
	tagTable
	tagTR
	tagTD
	tagTH
	tagTHead
	tagTBody
	tagOption
	tagLI
	tagP
	tagScript
	tagStyle
	tagTextarea
	tagTitle
)

// kindOf classifies a tag name, case-insensitively.
func kindOf(tag []byte) tagKind {
	var buf [8]byte
	if len(tag) > len(buf) || !kindInitial[lower(tag[0])] {
		return tagOther
	}
	for i, c := range tag {
		buf[i] = lower(c)
	}
	switch string(buf[:len(tag)]) {
	case "table":
		return tagTable
	case "tr":
		return tagTR
	case "td":
		return tagTD
	case "th":
		return tagTH
	case "thead":
		return tagTHead
	case "tbody":
		return tagTBody
	case "option":
		return tagOption
	case "li":
		return tagLI
	case "p":
		return tagP
	case "script":
		return tagScript
	case "style":
		return tagStyle
	case "textarea":
		return tagTextarea
	case "title":
		return tagTitle
	case "area", "base", "br", "col", "embed", "hr", "img", "input",
		"link", "meta", "param", "source", "track", "wbr":
		return tagVoid
	}
	return tagOther
}

// kindInitial marks the first letters of the names kindOf knows.
var kindInitial = [256]bool{'a': true, 'b': true, 'c': true, 'e': true, 'h': true, 'i': true,
	'l': true, 'm': true, 'o': true, 'p': true, 's': true, 't': true, 'w': true}

// rawText reports whether the element's body is text up to its end tag.
func (k tagKind) rawText() bool {
	return k == tagScript || k == tagStyle || k == tagTextarea || k == tagTitle
}

// closes returns, as a bit set over tag kinds, the open elements a new
// element of this kind implicitly closes while they are innermost
// (unclosed <option>, <tr>, <td>, <li>, <p>).
func (k tagKind) closes() uint32 {
	switch k {
	case tagOption:
		return 1 << tagOption
	case tagTR, tagTHead:
		return 1<<tagTR | 1<<tagTD | 1<<tagTH
	case tagTD, tagTH:
		return 1<<tagTD | 1<<tagTH
	case tagLI:
		return 1 << tagLI
	case tagP:
		return 1 << tagP
	case tagTBody:
		return 1<<tagTR | 1<<tagTD | 1<<tagTH | 1<<tagTHead
	}
	return 0
}

// countRowTags bounds the rows a table starting at src can hold: the
// number of <tr> start tags left in the page.
func countRowTags(src []byte) int {
	n := 0
	for i := 0; ; i++ {
		lt := bytes.IndexByte(src[i:], '<')
		if lt < 0 {
			return n
		}
		i += lt
		if i+2 < len(src) && lower(src[i+1]) == 't' && lower(src[i+2]) == 'r' &&
			(i+3 == len(src) || !isTagNameByte(src[i+3])) {
			n++
		}
	}
}

// indexEndTag finds the end tag "</tag" in src, case-insensitively; -1
// when absent.
func indexEndTag(src, tag []byte) int {
	for i := 0; ; i++ {
		lt := bytes.Index(src[i:], []byte("</"))
		if lt < 0 {
			return -1
		}
		i += lt
		if i+2+len(tag) <= len(src) && bytes.EqualFold(src[i+2:i+2+len(tag)], tag) {
			return i
		}
	}
}

// lowerIs reports whether strings.ToLower(string(b)) == want for a
// lowercase ASCII want, without allocating on ASCII input.
func lowerIs(b []byte, want string) bool {
	if !isASCII(b) {
		return strings.ToLower(string(b)) == want
	}
	if len(b) != len(want) {
		return false
	}
	for i, c := range b {
		if lower(c) != want[i] {
			return false
		}
	}
	return true
}

// isPlain reports whether a text node is its own collapsed text: ASCII,
// no character reference to expand, no whitespace but single spaces
// between words.
func isPlain(seg []byte, unescape bool) bool {
	if len(seg) == 0 || seg[0] == ' ' || seg[len(seg)-1] == ' ' {
		return false
	}
	for i, c := range seg {
		switch {
		case c >= 0x80, c == '&' && unescape:
			return false
		case c == ' ':
			if seg[i+1] == ' ' {
				return false
			}
		case isASCIISpace(c):
			return false
		}
	}
	return true
}

// isBlank reports whether a text node holds only ASCII whitespace, so it
// adds nothing to a collapsed text.
func isBlank(seg []byte) bool {
	for _, c := range seg {
		if !isASCIISpace(c) {
			return false
		}
	}
	return true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// isASCIISpace is unicode.IsSpace restricted to ASCII.
func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// isSpace is the whitespace that separates a tag's attributes.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isTagNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
