package htmlx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleTree(t *testing.T) {
	root := Parse(`<html><body><div id="x">hello <b>world</b></div></body></html>`)
	div := root.ByID("x")
	if div == nil {
		t.Fatal("div#x not found")
	}
	if div.Tag != "div" {
		t.Fatalf("tag = %q", div.Tag)
	}
	if got := div.TextContent(); got != "hello world" {
		t.Fatalf("TextContent = %q", got)
	}
	bs := root.ByTag("b")
	if len(bs) != 1 || bs[0].TextContent() != "world" {
		t.Fatalf("b extraction wrong: %v", bs)
	}
}

func TestParseAttributes(t *testing.T) {
	root := Parse(`<a href="/x?a=1&amp;b=2" class='link' disabled data-v=42>go</a>`)
	a := root.ByTag("a")[0]
	if v, _ := a.Attr("href"); v != "/x?a=1&b=2" {
		t.Errorf("href = %q (entities should unescape)", v)
	}
	if v, _ := a.Attr("class"); v != "link" {
		t.Errorf("class = %q", v)
	}
	if _, ok := a.Attr("disabled"); !ok {
		t.Error("bare attribute missing")
	}
	if v, _ := a.Attr("data-v"); v != "42" {
		t.Errorf("unquoted attribute = %q", v)
	}
	if _, ok := a.Attr("absent"); ok {
		t.Error("absent attribute found")
	}
	if a.AttrOr("absent", "d") != "d" {
		t.Error("AttrOr default wrong")
	}
}

func TestParseVoidAndSelfClosing(t *testing.T) {
	root := Parse(`<p>a<br>b<img src="x"/>c</p><input name="q">`)
	if len(root.ByTag("br")) != 1 || len(root.ByTag("img")) != 1 || len(root.ByTag("input")) != 1 {
		t.Fatal("void elements not parsed")
	}
	p := root.ByTag("p")[0]
	if got := p.TextContent(); got != "a b c" {
		t.Fatalf("text around voids = %q", got)
	}
}

func TestParseCommentsAndDoctype(t *testing.T) {
	root := Parse(`<!DOCTYPE html><!-- a <b> comment --><div>x</div><!-- unterminated`)
	if len(root.ByTag("b")) != 0 {
		t.Error("tag inside comment parsed")
	}
	if got := root.TextContent(); got != "x" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestParseScriptRawText(t *testing.T) {
	root := Parse(`<script>if (a < b) { x = "<div>"; }</script><p>after</p>`)
	script := root.ByTag("script")[0]
	if !strings.Contains(script.TextContent(), `a < b`) {
		t.Errorf("script body = %q", script.TextContent())
	}
	if len(root.ByTag("div")) != 0 {
		t.Error("markup inside script parsed as elements")
	}
	if len(root.ByTag("p")) != 1 {
		t.Error("content after script lost")
	}
}

func TestParseImpliedOptionEnd(t *testing.T) {
	root := Parse(`<select name="c">
		<option value="0">red
		<option value="1" selected>blue
		<option value="2">green
	</select>`)
	opts := root.ByTag("option")
	if len(opts) != 3 {
		t.Fatalf("options = %d, want 3", len(opts))
	}
	for i, want := range []string{"red", "blue", "green"} {
		if got := opts[i].TextContent(); got != want {
			t.Errorf("option %d text = %q, want %q", i, got, want)
		}
	}
	// Options must be siblings, not nested.
	if opts[0].Find(func(n *Node) bool { return n != opts[0] && n.Tag == "option" }) != nil {
		t.Error("options nested instead of siblings")
	}
}

func TestParseImpliedTableEnds(t *testing.T) {
	root := Parse(`<table><tr><td>a<td>b<tr><td>c<td>d</table>`)
	trs := root.ByTag("tr")
	if len(trs) != 2 {
		t.Fatalf("rows = %d, want 2", len(trs))
	}
	for i, tr := range trs {
		tds := 0
		for _, c := range tr.Children {
			if c.Tag == "td" {
				tds++
			}
		}
		if tds != 2 {
			t.Errorf("row %d has %d direct td children, want 2", i, tds)
		}
	}
}

func TestParseStrayEndTagAndLoneLT(t *testing.T) {
	root := Parse(`</div><p>1 < 2 and <b>fine</b></p>`)
	p := root.ByTag("p")
	if len(p) != 1 {
		t.Fatalf("p count = %d", len(p))
	}
	if got := p[0].TextContent(); got != "1 < 2 and fine" {
		t.Errorf("text = %q", got)
	}
}

func TestParseEntitiesInText(t *testing.T) {
	root := Parse(`<span>Fish &amp; Chips &lt;deluxe&gt; &#65;</span>`)
	if got := root.ByTag("span")[0].TextContent(); got != "Fish & Chips <deluxe> A" {
		t.Errorf("text = %q", got)
	}
}

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	cases := []string{
		"", "<", "<>", "<a", "<a href=", `<a href="unterminated`, "</", "<!",
		"<!--", "<select><option>", "text only", "<<<>>>", "<a/><b/></b></a>",
		"<table><td>no row</table>", "<script>never closed",
	}
	for _, c := range cases {
		root := Parse(c)
		if root == nil {
			t.Fatalf("Parse(%q) returned nil", c)
		}
	}
}

func TestExtractFormsBasic(t *testing.T) {
	page := `
	<html><body>
	<form name="search" action="/search" method="get">
	  <select name="make">
	    <option value="">any</option>
	    <option value="0">toyota</option>
	    <option value="1">honda</option>
	  </select>
	  <select name="color" multiple>
	    <option value="0" selected>red<option value="1">blue
	  </select>
	  <input type="hidden" name="v" value="1">
	  <input type="submit" value="Search">
	</form>
	</body></html>`
	forms := ExtractForms(Parse(page))
	if len(forms) != 1 {
		t.Fatalf("forms = %d", len(forms))
	}
	f := forms[0]
	if f.Action != "/search" || f.Method != "GET" || f.Name != "search" {
		t.Fatalf("form meta = %+v", f)
	}
	if len(f.Selects) != 2 {
		t.Fatalf("selects = %d", len(f.Selects))
	}
	mk := f.SelectByName("make")
	if mk == nil || len(mk.Options) != 3 {
		t.Fatalf("make select = %+v", mk)
	}
	if mk.Options[1].Value != "0" || mk.Options[1].Label != "toyota" {
		t.Fatalf("option = %+v", mk.Options[1])
	}
	color := f.SelectByName("color")
	if !color.Multiple {
		t.Error("multiple flag lost")
	}
	if !color.Options[0].Selected || color.Options[1].Selected {
		t.Error("selected flags wrong")
	}
	if len(f.Inputs) != 2 || f.Inputs[0].Type != "hidden" || f.Inputs[0].Value != "1" {
		t.Fatalf("inputs = %+v", f.Inputs)
	}
	if f.SelectByName("nope") != nil {
		t.Error("SelectByName found nonexistent control")
	}
}

func TestExtractFormDefaults(t *testing.T) {
	forms := ExtractForms(Parse(`<form><select name="s"><option>plain</option></select></form>`))
	if len(forms) != 1 {
		t.Fatal("form missing")
	}
	if forms[0].Method != "GET" {
		t.Errorf("default method = %q", forms[0].Method)
	}
	opt := forms[0].Selects[0].Options[0]
	if opt.Value != "plain" || opt.Label != "plain" {
		t.Errorf("valueless option = %+v (value should default to label)", opt)
	}
}

// TestExtractNestedForms: a control belongs to its nearest enclosing
// form, and an option and its text to its nearest enclosing select,
// however a page nests them.
func TestExtractNestedForms(t *testing.T) {
	page := `<form name="outer"><select name="a"><option value="0">x<form name="inner">` +
		`<select name="b"><option value="1">y</select></form></select><input name="i"></form>`
	forms := ExtractForms(Parse(page))
	if len(forms) != 2 || forms[0].Name != "outer" || forms[1].Name != "inner" {
		t.Fatalf("forms = %+v", forms)
	}
	outer, inner := forms[0], forms[1]
	if len(outer.Selects) != 1 || len(outer.Inputs) != 1 || len(inner.Selects) != 1 || len(inner.Inputs) != 0 {
		t.Fatalf("outer %+v, inner %+v", outer, inner)
	}
	if a := outer.Selects[0].Options; len(a) != 1 || a[0] != (Option{Value: "0", Label: "x"}) {
		t.Errorf("select a options = %+v", a)
	}
	if b := inner.Selects[0].Options; len(b) != 1 || b[0] != (Option{Value: "1", Label: "y"}) {
		t.Errorf("select b options = %+v", b)
	}
}

func TestFormByName(t *testing.T) {
	page := `<form name="a" action="/a"></form><form name="b" action="/b/search"></form>`
	root := Parse(page)
	if f := FormByName(root, ""); f == nil || f.Name != "a" {
		t.Error("empty name should return first form")
	}
	if f := FormByName(root, "b"); f == nil || f.Name != "b" {
		t.Error("by name failed")
	}
	if f := FormByName(root, "search"); f == nil || f.Name != "b" {
		t.Error("by action substring failed")
	}
	if f := FormByName(root, "zzz"); f != nil {
		t.Error("nonexistent form found")
	}
	if f := FormByName(Parse("<p>no forms</p>"), ""); f != nil {
		t.Error("found form in formless page")
	}
}

func TestExtractTables(t *testing.T) {
	page := `
	<table id="results">
	  <tr><th>make</th><th>price</th></tr>
	  <tr><td data-id="7">toyota</td><td>12000</td></tr>
	  <tr><td data-id="9">honda</td><td>9500</td></tr>
	</table>`
	tbl := TableByID(Parse(page), "results")
	if tbl == nil {
		t.Fatal("table not found")
	}
	if len(tbl.Header) != 2 || tbl.Header[0] != "make" {
		t.Fatalf("header = %v", tbl.Header)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0].Text != "toyota" || tbl.Rows[1][1].Text != "9500" {
		t.Fatalf("cells wrong: %+v", tbl.Rows)
	}
	if id, ok := tbl.Rows[0][0].Attr("data-id"); !ok || id != "7" {
		t.Fatalf("cell attr = %q,%v", id, ok)
	}
	if _, ok := tbl.Rows[0][0].Attr("absent"); ok {
		t.Error("absent cell attr found")
	}
	if TableByID(Parse(page), "zzz") != nil {
		t.Error("nonexistent table found")
	}
}

func TestExtractTablesWithTbodyAndNoHeader(t *testing.T) {
	page := `<table id="t"><tbody><tr><td>1</td><td>2</td></tr></tbody></table>`
	tbl := TableByID(Parse(page), "t")
	if tbl == nil || len(tbl.Header) != 0 || len(tbl.Rows) != 1 {
		t.Fatalf("table = %+v", tbl)
	}
}

func TestExtractNestedTables(t *testing.T) {
	page := `<table id="outer"><tr><td>x<table id="inner"><tr><td>y</td></tr></table></td></tr></table>`
	root := Parse(page)
	outer := TableByID(root, "outer")
	inner := TableByID(root, "inner")
	if outer == nil || inner == nil {
		t.Fatal("tables missing")
	}
	if len(outer.Rows) != 1 {
		t.Fatalf("outer rows = %d (nested rows leaked)", len(outer.Rows))
	}
	if len(inner.Rows) != 1 || inner.Rows[0][0].Text != "y" {
		t.Fatalf("inner rows = %+v", inner.Rows)
	}
}

func TestMixedCaseTags(t *testing.T) {
	root := Parse(`<DIV ID="X"><SPAN>t</SPAN></DIV>`)
	if root.ByID("X") == nil {
		t.Error("uppercase id attr key should fold, value should not")
	}
	if len(root.ByTag("span")) != 1 || len(root.ByTag("SPAN")) != 1 {
		t.Error("ByTag should be case-insensitive")
	}
}

// Property: parsing a synthesized form page always recovers exactly the
// selects and options that were rendered — the round trip the HTTP
// connector depends on for schema discovery.
func TestFormRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSelects := 1 + rng.Intn(5)
		var b strings.Builder
		b.WriteString(`<html><body><form name="f" action="/s" method="get">`)
		wantOpts := make([][]string, nSelects)
		for i := 0; i < nSelects; i++ {
			fmt.Fprintf(&b, `<select name="sel%d">`, i)
			nOpts := 2 + rng.Intn(6)
			for j := 0; j < nOpts; j++ {
				label := fmt.Sprintf("opt %d&%d <x>", i, j)
				fmt.Fprintf(&b, `<option value="%d">%s</option>`, j, strings.ReplaceAll(strings.ReplaceAll(label, "&", "&amp;"), "<", "&lt;"))
				wantOpts[i] = append(wantOpts[i], label)
			}
			b.WriteString("</select>")
		}
		b.WriteString(`</form></body></html>`)
		forms := ExtractForms(Parse(b.String()))
		if len(forms) != 1 || len(forms[0].Selects) != nSelects {
			return false
		}
		for i, sel := range forms[0].Selects {
			if sel.Name != fmt.Sprintf("sel%d", i) || len(sel.Options) != len(wantOpts[i]) {
				return false
			}
			for j, opt := range sel.Options {
				if opt.Label != wantOpts[i][j] || opt.Value != fmt.Sprintf("%d", j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse terminates and returns a tree for random byte soup.
func TestParseFuzzProperty(t *testing.T) {
	chars := []byte(`<>/="' abAB!-&;`)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = chars[rng.Intn(len(chars))]
		}
		return Parse(string(buf)) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTextContentWhitespaceCollapse(t *testing.T) {
	root := Parse("<p>  a\n\t b  <i> c </i>  </p>")
	if got := root.ByTag("p")[0].TextContent(); got != "a b c" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestIsTextAndFind(t *testing.T) {
	root := Parse(`<div><p>x</p></div>`)
	txt := root.Find(func(n *Node) bool { return n.IsText() })
	if txt == nil || txt.Text != "x" {
		t.Fatalf("text node = %+v", txt)
	}
	if root.Find(func(n *Node) bool { return n.Tag == "video" }) != nil {
		t.Error("found nonexistent node")
	}
}
