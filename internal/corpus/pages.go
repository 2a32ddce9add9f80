package corpus

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// link is one outgoing hyperlink during page assembly.
type link struct {
	href   string
	anchor string
}

// htmlPage assembles a minimal but realistic HTML document.
func htmlPage(title, body string, links []link) []byte {
	var b strings.Builder
	b.Grow(len(body) + 256)
	b.WriteString("<html><head><title>")
	b.WriteString(title)
	b.WriteString("</title></head><body>\n<h1>")
	b.WriteString(title)
	b.WriteString("</h1>\n<p>")
	b.WriteString(body)
	b.WriteString("</p>\n")
	for _, l := range links {
		fmt.Fprintf(&b, "<a href=\"%s\">%s</a>\n", l.href, l.anchor)
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// gzipWriters pools the papers' gzip encoders: each carries ≈800 KB of
// DEFLATE state that Reset keeps, and Reset writes the same bytes a fresh
// writer would.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// gzipBytes wraps content in a gzip stream carrying the original name.
func gzipBytes(content []byte, name string) []byte {
	var buf bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
	zw.Name = name
	zw.Write(content)
	zw.Close()
	return buf.Bytes()
}

// spdfPage assembles a synthetic PDF (see htmldoc's SPDF handler).
func spdfPage(title, body string, links []link) []byte {
	var b strings.Builder
	b.Grow(len(body) + 128)
	b.WriteString("%SPDF-1.0\n")
	b.WriteString("Title: " + title + "\n")
	for _, l := range links {
		b.WriteString("Link: " + l.href + " " + l.anchor + "\n")
	}
	b.WriteString("\n")
	b.WriteString(body)
	return []byte(b.String())
}

// --- general web ---

func (w *World) buildGeneralWeb(rng *rand.Rand) {
	type ref struct{ host, path string }
	var refs []ref
	for h := 0; h < w.cfg.GeneralHosts; h++ {
		host := fmt.Sprintf("www.gen%02d.example", h)
		for p := 0; p < w.cfg.PagesPerGeneralHost; p++ {
			refs = append(refs, ref{host, fmt.Sprintf("/p%02d.html", p)})
		}
	}
	for _, r := range refs {
		gen := w.generalText(rng)
		var links []link
		for i := 0; i < 3+rng.Intn(3); i++ {
			t := refs[rng.Intn(len(refs))]
			links = append(links, link{urlOf(t.host, t.path), gen.sentence(2)})
		}
		u := urlOf(r.host, r.path)
		w.addPage(&Page{
			URL: u, Host: r.host, ContentType: "text/html",
			Body:  htmlPage("News and leisure", gen.paragraphs(4+rng.Intn(4)), links),
			Topic: -1, Kind: KindGeneral,
		})
		w.generalPages = append(w.generalPages, u)
	}
	sort.Strings(w.generalPages)
}

// --- departments ---

// deptHosts[topic] lists the department hostnames of one topic.
func (w *World) buildDepartments(rng *rand.Rand) [][]string {
	depts := make([][]string, len(w.cfg.Topics))
	for ti, topic := range w.cfg.Topics {
		for h := 0; h < w.cfg.HostsPerTopic; h++ {
			host := fmt.Sprintf("cs%02d.%s.example", h, topic)
			w.registerHost(host)
			depts[ti] = append(depts[ti], host)
		}
	}
	// Non-primary topics get plain topical project pages so their
	// communities have real content without the researcher machinery.
	for ti := 1; ti < len(w.cfg.Topics); ti++ {
		for _, host := range depts[ti] {
			n := 8 + rng.Intn(6)
			for p := 0; p < n; p++ {
				gen := w.topicText(rng, ti, 0.55)
				var links []link
				for i := 0; i < 2+rng.Intn(3); i++ {
					t := fmt.Sprintf("/project%02d.html", rng.Intn(n))
					links = append(links, link{urlOf(host, t), gen.sentence(2)})
				}
				links = append(links, link{urlOf(host, "/index.html"), "department home"})
				// Cross-disciplinary sections on a minority of project pages
				// (realistic content noise; see the author-homepage analog).
				body := gen.paragraphs(4 + rng.Intn(4))
				if rng.Float64() < 0.2 {
					other := rng.Intn(len(w.cfg.Topics))
					body += " " + w.topicText(rng, other, 0.6).paragraphs(2)
				}
				u := urlOf(host, fmt.Sprintf("/project%02d.html", p))
				w.addPage(&Page{
					URL: u, Host: host, ContentType: "text/html",
					Body:  htmlPage("Research project", body, links),
					Topic: ti, Kind: KindProject,
				})
			}
		}
	}
	return depts
}

// --- authors (primary topic) ---

func (w *World) buildAuthors(rng *rand.Rand, depts [][]string) {
	n := w.cfg.AuthorsPrimary
	if n == 0 {
		return
	}
	primaryHosts := depts[0]
	// Publication counts decay exponentially from 258 to 2, matching the
	// DBLP range the paper reports (§5.2).
	decay := float64(n) / 5.5
	w.Authors = make([]Author, n)
	for i := 0; i < n; i++ {
		pubs := int(math.Round(258 * math.Exp(-float64(i)/decay)))
		if pubs < 2 {
			pubs = 2
		}
		host := primaryHosts[rng.Intn(len(primaryHosts))]
		name := fmt.Sprintf("author%04d", i)
		dir := "/~" + name + "/"
		sub := -1
		if len(w.cfg.PrimarySubtopics) > 0 {
			sub = i % len(w.cfg.PrimarySubtopics)
		}
		w.Authors[i] = Author{
			Name:       name,
			Pubs:       pubs,
			HomeURL:    urlOf(host, dir+"index.html"),
			HomePrefix: urlOf(host, dir),
			Subtopic:   sub,
		}
	}
	// Pages: homepage, publication list, SPDF papers.
	confURL := func(k int) string {
		return urlOf(fmt.Sprintf("conf%02d.%s.example", k, w.cfg.Topics[0]), "/index.html")
	}
	// pickCoauthor prefers prolific (low-index) authors, the preferential
	// attachment of real citation communities. It also means low-ranked
	// researchers are reachable mostly through their department's tunnel
	// page, which is what makes tunnelling (§3.3) matter.
	prefPick := func() *Author {
		i := int(math.Floor(math.Pow(rng.Float64(), 2.5) * float64(len(w.Authors))))
		if i >= len(w.Authors) {
			i = len(w.Authors) - 1
		}
		return &w.Authors[i]
	}
	// pickCoauthor additionally prefers the same subcommunity (researchers
	// mostly cite within their field, with occasional cross-links).
	pickCoauthor := func(sub int) *Author {
		for try := 0; try < 8; try++ {
			cand := prefPick()
			if sub < 0 || cand.Subtopic == sub || rng.Float64() < 0.15 {
				return cand
			}
		}
		return prefPick()
	}
	for i := range w.Authors {
		a := &w.Authors[i]
		host := hostOfURL(a.HomeURL)
		var gen *textGen
		if a.Subtopic >= 0 {
			// subcommunity members write shared + subtopic terminology
			gen = w.subtopicText(rng, a.Subtopic, 0.40, 0.30)
		} else {
			gen = w.topicText(rng, 0, 0.55)
		}
		npapers := 2 + a.Pubs/40
		if npapers > 6 {
			npapers = 6
		}
		pubsURL := a.HomePrefix + "pubs.html"

		var homeLinks []link
		homeLinks = append(homeLinks, link{pubsURL, "publications of " + a.Name})
		homeLinks = append(homeLinks, link{urlOf(host, "/index.html"), "department home"})
		for c := 0; c < 2+rng.Intn(3); c++ {
			co := pickCoauthor(a.Subtopic)
			homeLinks = append(homeLinks, link{co.HomeURL, co.Name + " " + gen.sentence(1)})
		}
		if w.cfg.ConferencesPerTopic > 0 {
			homeLinks = append(homeLinks, link{confURL(rng.Intn(w.cfg.ConferencesPerTopic)), "conference " + gen.sentence(1)})
		}
		// Personal "hobby" links give an unfocused crawler an escape route
		// into the general Web right next to the seeds.
		if len(w.generalPages) > 0 && rng.Float64() < 0.3 {
			homeLinks = append(homeLinks, link{w.generalPages[rng.Intn(len(w.generalPages))], "my favourite team"})
		}
		// Prolific researchers publish more topical text on their homepage,
		// so classification confidence correlates with ground-truth rank as
		// it does on the real Web. A minority of homepages carry a cross-
		// disciplinary section (§2.6 mentions exactly this heterogeneity:
		// "a senior researcher's home page ... reflects different research
		// topics"), which makes pure-content classifiers fallible in ways
		// link evidence is not.
		body := gen.paragraphs(3+a.Pubs/50+rng.Intn(3)) + " " + a.Name + " " + a.Name
		if len(w.cfg.Topics) > 1 && rng.Float64() < 0.2 {
			other := 1 + rng.Intn(len(w.cfg.Topics)-1)
			body += " " + w.topicText(rng, other, 0.6).paragraphs(2)
		}
		if i == 1 {
			// The second seed author's homepage is a frameset — the paper's
			// Gray analog ("actually 3 pages as Gray's page has two frames,
			// which are handled by our crawler as separate documents").
			bioURL := a.HomePrefix + "bio.html"
			resURL := a.HomePrefix + "research.html"
			w.addPage(&Page{
				URL: a.HomeURL, Host: host, ContentType: "text/html",
				Body: []byte("<html><head><title>" + a.Name + " research group</title></head>" +
					"<frameset cols=\"30%,70%\"><frame src=\"bio.html\"><frame src=\"research.html\"></frameset></html>\n"),
				Topic: 0, Kind: KindAuthorHome,
			})
			half := len(homeLinks) / 2
			w.addPage(&Page{
				URL: bioURL, Host: host, ContentType: "text/html",
				Body:  htmlPage("About "+a.Name, gen.paragraphs(3)+" "+a.Name, homeLinks[:half]),
				Topic: 0, Kind: KindAuthorHome,
			})
			w.addPage(&Page{
				URL: resURL, Host: host, ContentType: "text/html",
				Body:  htmlPage("Research of "+a.Name, body, homeLinks[half:]),
				Topic: 0, Kind: KindAuthorHome,
			})
		} else {
			w.addPage(&Page{
				URL: a.HomeURL, Host: host, ContentType: "text/html",
				Body:  htmlPage(a.Name+" research group", body, homeLinks),
				Topic: 0, Kind: KindAuthorHome,
			})
		}

		var pubLinks []link
		pubLinks = append(pubLinks, link{a.HomeURL, a.Name + " homepage"})
		for p := 0; p < npapers; p++ {
			paperURL := fmt.Sprintf("%spapers/p%02d.pdf", a.HomePrefix, p)
			var paperLinks []link
			for r := 0; r < 1+rng.Intn(2); r++ {
				co := pickCoauthor(a.Subtopic)
				paperLinks = append(paperLinks, link{co.HomeURL, co.Name})
			}
			body := spdfPage("Paper by "+a.Name, gen.paragraphs(5+rng.Intn(5)), paperLinks)
			ctype := "application/pdf"
			// A fraction of papers are served gzip-compressed (the §2.2
			// "common archive files" path of the document analyzer).
			if rng.Float64() < 0.15 {
				paperURL = fmt.Sprintf("%spapers/p%02d.pdf.gz", a.HomePrefix, p)
				body = gzipBytes(body, fmt.Sprintf("p%02d.pdf", p))
				ctype = "application/gzip"
			}
			pubLinks = append(pubLinks, link{paperURL, gen.sentence(3)})
			w.addPage(&Page{
				URL: paperURL, Host: host, ContentType: ctype,
				Body:  body,
				Topic: 0, Kind: KindPaper,
			})
		}
		w.addPage(&Page{
			URL: pubsURL, Host: host, ContentType: "text/html",
			Body:  htmlPage("Publications of "+a.Name, gen.paragraphs(2), pubLinks),
			Topic: 0, Kind: KindAuthorPubs,
		})
	}
	w.seedURLs = []string{w.Authors[0].HomeURL, w.Authors[1].HomeURL}
}

// --- conferences (hubs) ---

func (w *World) buildConferences(rng *rand.Rand) {
	for ti, topic := range w.cfg.Topics {
		for k := 0; k < w.cfg.ConferencesPerTopic; k++ {
			host := fmt.Sprintf("conf%02d.%s.example", k, topic)
			gen := w.topicText(rng, ti, 0.7)
			var links []link
			if ti == 0 && len(w.Authors) > 0 {
				// Hub pages point at many author homepages, preferentially
				// at the most published (aligning link authority with the
				// ground-truth ranking as on the real Web).
				seen := map[int]struct{}{}
				for len(seen) < min(40, len(w.Authors)) {
					// quadratic preference toward low indices (top authors)
					i := int(math.Floor(math.Pow(rng.Float64(), 2) * float64(len(w.Authors))))
					if i >= len(w.Authors) {
						i = len(w.Authors) - 1
					}
					if _, dup := seen[i]; dup {
						continue
					}
					seen[i] = struct{}{}
					links = append(links, link{w.Authors[i].HomeURL, w.Authors[i].Name + " " + gen.sentence(1)})
				}
			} else {
				// Other topics: link to topical project pages.
				for i := 0; i < 20; i++ {
					h := fmt.Sprintf("cs%02d.%s.example", rng.Intn(w.cfg.HostsPerTopic), topic)
					links = append(links, link{urlOf(h, fmt.Sprintf("/project%02d.html", rng.Intn(8))), gen.sentence(2)})
				}
			}
			// Sponsor links point into the general Web (escape routes for
			// an unfocused crawler).
			for s := 0; s < 2 && len(w.generalPages) > 0; s++ {
				links = append(links, link{w.generalPages[rng.Intn(len(w.generalPages))], "our sponsor"})
			}
			u := urlOf(host, "/index.html")
			w.addPage(&Page{
				URL: u, Host: host, ContentType: "text/html",
				Body:  htmlPage("Conference on "+topic, gen.paragraphs(3), links),
				Topic: ti, Kind: KindConference,
			})
			w.conferencePage = append(w.conferencePage, u)
		}
	}
}

// --- department home (tunnel) pages ---

func (w *World) linkDepartments(rng *rand.Rand, depts [][]string) {
	// authorsByHost groups author homepages per department.
	authorsByHost := map[string][]*Author{}
	for i := range w.Authors {
		h := hostOfURL(w.Authors[i].HomeURL)
		authorsByHost[h] = append(authorsByHost[h], &w.Authors[i])
	}
	for ti := range w.cfg.Topics {
		for _, host := range depts[ti] {
			// Tunnel page: almost no topical signal (§3.3: "welcome" and
			// "table-of-contents" pages one must tunnel through).
			gen := w.topicText(rng, ti, 0.05)
			var links []link
			if ti == 0 {
				for _, a := range authorsByHost[host] {
					links = append(links, link{a.HomeURL, a.Name})
				}
			} else {
				for p := 0; p < 8; p++ {
					links = append(links, link{urlOf(host, fmt.Sprintf("/project%02d.html", p)), gen.sentence(1)})
				}
			}
			for i := 0; i < 2; i++ {
				other := depts[ti][rng.Intn(len(depts[ti]))]
				links = append(links, link{urlOf(other, "/index.html"), "partner department"})
			}
			// occasional cross-topic and general-web links
			if len(w.cfg.Topics) > 1 && rng.Float64() < 0.5 {
				ot := (ti + 1 + rng.Intn(len(w.cfg.Topics)-1)) % len(w.cfg.Topics)
				links = append(links, link{urlOf(depts[ot][rng.Intn(len(depts[ot]))], "/index.html"), "partner institute"})
			}
			if len(w.generalPages) > 0 {
				links = append(links, link{w.generalPages[rng.Intn(len(w.generalPages))], "campus life"})
			}
			w.addPage(&Page{
				URL: urlOf(host, "/index.html"), Host: host, ContentType: "text/html",
				Body:  htmlPage("Welcome to the department", gen.paragraphs(2), links),
				Topic: ti, Kind: KindDeptHome,
			})
		}
	}
}

// --- expert (ARIES) community ---

func (w *World) buildExpertCommunity(rng *rand.Rand, depts [][]string) {
	primary := depts[0]
	expertVocab := append(append([]string(nil), expertSeedTerms...), w.topicVocab[0][:20]...)
	expertGen := func() *textGen {
		return &textGen{
			rng:       rng,
			primary:   newSampler(rng, expertVocab),
			common:    newSampler(rng, w.commonVocab),
			topicFrac: 0.6,
		}
	}

	hubURL := urlOf("research.ibm00.example", "/~mohan/aries.html")
	projHosts := []string{"shore.example", "minibase.example"}

	// Lecture pages on department hosts.
	var lectures []string
	nLect := 8
	for i := 0; i < nLect; i++ {
		host := primary[rng.Intn(len(primary))]
		u := urlOf(host, fmt.Sprintf("/courses/aries%02d.html", i))
		lectures = append(lectures, u)
	}
	for i, u := range lectures {
		gen := expertGen()
		links := []link{{hubURL, "aries recovery resources"}}
		links = append(links, link{lectures[(i+1)%nLect], "further lecture notes"})
		w.addPage(&Page{
			URL: u, Host: hostOfURL(u), ContentType: "text/html",
			Body:  htmlPage("Lecture: the ARIES recovery algorithm", gen.paragraphs(4+rng.Intn(4)), links),
			Topic: 0, Kind: KindExpert,
		})
	}
	w.expertSeeds = lectures[:min(7, len(lectures))]

	// The hub (Mohan-style) page links lectures and project index pages.
	var hubLinks []link
	for _, u := range lectures {
		hubLinks = append(hubLinks, link{u, "aries teaching material"})
	}
	for _, h := range projHosts {
		hubLinks = append(hubLinks, link{urlOf(h, "/index.html"), "storage manager project"})
	}
	gen := expertGen()
	w.addPage(&Page{
		URL: hubURL, Host: hostOfURL(hubURL), ContentType: "text/html",
		Body:  htmlPage("ARIES recovery method", gen.paragraphs(6), hubLinks),
		Topic: 0, Kind: KindExpert,
	})

	// Project index pages and the needle pages underneath them.
	needleVocab := append(append([]string(nil), needleTerms...), expertSeedTerms...)
	for _, h := range projHosts {
		idxURL := urlOf(h, "/index.html")
		relURL := urlOf(h, "/docs/release.html")
		gen := expertGen()
		w.addPage(&Page{
			URL: idxURL, Host: h, ContentType: "text/html",
			Body: htmlPage("Storage manager implementing ARIES",
				gen.paragraphs(4), []link{{relURL, "source code release"}, {hubURL, "aries background"}}),
			Topic: 0, Kind: KindExpert,
		})
		ngen := &textGen{rng: rng, primary: newSampler(rng, needleVocab), common: newSampler(rng, w.commonVocab), topicFrac: 0.75}
		w.addPage(&Page{
			URL: relURL, Host: h, ContentType: "text/html",
			Body: htmlPage("Source code release (open source)",
				"source code release download open source license tarball repository. "+ngen.paragraphs(4),
				[]link{{idxURL, "project home"}}),
			Topic: 0, Kind: KindExpertNeedle,
		})
		w.needleURLs = append(w.needleURLs, relURL)
	}
}

// hostOfURL extracts the hostname from an absolute generated URL.
func hostOfURL(u string) string {
	rest := strings.TrimPrefix(u, "http://")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}
