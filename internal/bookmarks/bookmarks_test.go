package bookmarks

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

const netscapeSample = `<!DOCTYPE NETSCAPE-Bookmark-file-1>
<TITLE>Bookmarks</TITLE>
<H1>Bookmarks</H1>
<DL><p>
  <DT><A HREF="http://toplevel.example/">Unfiled</A>
  <DT><H3>Data Mining</H3>
  <DL><p>
    <DT><A HREF="http://dm1.example/~alice/">Alice</A>
    <DT><A HREF="http://dm2.example/~bob/">Bob</A>
    <DT><H3>Clustering</H3>
    <DL><p>
      <DT><A HREF="http://cl.example/survey">Survey</A>
    </DL><p>
  </DL><p>
  <DT><H3>Hiking</H3>
  <DL><p>
    <DT><A HREF="http://hike.example/trails">Trails</A>
  </DL><p>
</DL><p>
`

func TestParseNetscape(t *testing.T) {
	topics, err := ParseNetscape(strings.NewReader(netscapeSample))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Topic{}
	for _, tp := range topics {
		byKey[strings.Join(tp.Path, "/")] = tp
	}
	if got := byKey["bookmarks"].Seeds; len(got) != 1 || got[0] != "http://toplevel.example/" {
		t.Errorf("unfiled = %v", got)
	}
	dm := byKey["Data Mining"]
	if len(dm.Seeds) != 2 || dm.Seeds[0] != "http://dm1.example/~alice/" {
		t.Errorf("data mining = %v", dm.Seeds)
	}
	cl := byKey["Data Mining/Clustering"]
	if len(cl.Seeds) != 1 || cl.Seeds[0] != "http://cl.example/survey" {
		t.Errorf("clustering = %+v", cl)
	}
	if len(cl.Path) != 2 || cl.Path[0] != "Data Mining" || cl.Path[1] != "Clustering" {
		t.Errorf("nested path = %v", cl.Path)
	}
	hk := byKey["Hiking"]
	if len(hk.Seeds) != 1 {
		t.Errorf("hiking = %+v", hk)
	}
}

func TestParseNetscapeForgiving(t *testing.T) {
	// unbalanced lists, single quotes, unquoted href, junk tags
	src := `<DL><DT><H3>Topic</H3><DL>
<DT><A HREF='http://a.example/x'>a</A>
<DT><A href=http://b.example/y>b</A>
<DT><A NAME="no-href">c</A>
<WEIRD></DL></DL></DL>`
	topics, err := ParseNetscape(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 1 || len(topics[0].Seeds) != 2 {
		t.Fatalf("topics = %+v", topics)
	}
}

func TestParseNetscapeEmpty(t *testing.T) {
	if _, err := ParseNetscape(strings.NewReader("<html>nothing here</html>")); err == nil {
		t.Error("empty bookmark file accepted")
	}
}

func TestParseText(t *testing.T) {
	src := `# seeds for the overnight crawl
databases/systems	http://db1.example/~smith/
databases/systems	http://db2.example/~jones/
databases/mining http://dm.example/~lee/

hiking	http://hike.example/
`
	topics, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 3 {
		t.Fatalf("topics = %+v", topics)
	}
	// sorted by path key
	if strings.Join(topics[0].Path, "/") != "databases/mining" {
		t.Errorf("first = %v", topics[0].Path)
	}
	if got := topics[1].Seeds; len(got) != 2 {
		t.Errorf("systems seeds = %v", got)
	}
}

func TestParseTextErrors(t *testing.T) {
	if _, err := ParseText(strings.NewReader("too many fields here extra")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ParseText(strings.NewReader("# only comments\n")); err == nil {
		t.Error("empty file accepted")
	}
}

func TestSanitizeSegment(t *testing.T) {
	if sanitizeSegment(" a/b ") != "a-b" {
		t.Errorf("got %q", sanitizeSegment(" a/b "))
	}
	if sanitizeSegment("  ") != "unnamed" {
		t.Error("blank not handled")
	}
}

func TestAttrValue(t *testing.T) {
	cases := []struct {
		tag, name, want string
		ok              bool
	}{
		{`A HREF="http://x/"`, "href", "http://x/", true},
		{`A HREF='http://y/'`, "href", "http://y/", true},
		{`A href=http://z/ ADD_DATE=1`, "href", "http://z/", true},
		{`A NAME="n"`, "href", "", false},
		// Lower-casing these tags whole changes their byte length: the
		// value must still come from the right offset, never a panic.
		{"A \xf2\xd90HREF=00>", "href", "00", true},
		{`A TITLE="İİİİ" HREF="http://i/"`, "href", "http://i/", true},
	}
	for _, c := range cases {
		got, ok := attrValue(c.tag, c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("attrValue(%q) = %q,%v", c.tag, got, ok)
		}
	}
}

// FuzzParseBookmarks: on any input both parsers return topics or an error,
// never a panic. Every topic they return has seeds and a topic path whose
// segments are non-empty and hold no "/", so each one names a node of the
// topic tree.
func FuzzParseBookmarks(f *testing.F) {
	for _, seed := range []string{
		netscapeSample,
		"<DL><DT><H3>a/b</H3><DL><DT><A HREF='http://x.example/'>x</A></DL></DL>",
		"<a href=http://bare.example/>bare</a></dl></dl><h3>unclosed",
		"<H3> </H3><A HREF=\"\">empty</A><A HREF=\"http://q.example/",
		"db/recovery\thttp://aries.example/\n# comment\nir  http://ir.example/\n",
		"only-one-field\n",
		"a//b http://x.example/\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, parse := range map[string]func(io.Reader) ([]Topic, error){
			"ParseNetscape": ParseNetscape,
			"ParseText":     ParseText,
		} {
			topics, err := parse(bytes.NewReader(data))
			if err != nil {
				if topics != nil || !strings.HasPrefix(err.Error(), "bookmarks: ") {
					t.Fatalf("%s: %d topics with error %v", name, len(topics), err)
				}
				continue
			}
			if len(topics) == 0 {
				t.Fatalf("%s: no topics and no error", name)
			}
			for _, tp := range topics {
				if len(tp.Seeds) == 0 || len(tp.Path) == 0 {
					t.Fatalf("%s: topic %q with %d seeds", name, tp.Path, len(tp.Seeds))
				}
				for _, seg := range tp.Path {
					if seg == "" || strings.Contains(seg, "/") {
						t.Fatalf("%s: topic path %q has segment %q", name, tp.Path, seg)
					}
				}
			}
		}
	})
}
