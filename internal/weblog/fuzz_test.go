package weblog

import (
	"html"
	"strings"
	"testing"
	"unicode/utf8"
)

// The parsers before indexFold, kept as the oracle for pure-ASCII input:
// they searched strings.ToLower(doc), which keeps the byte length of
// ASCII and only of ASCII.

func toLowerExtractLinks(doc string) []string {
	var out []string
	lower := strings.ToLower(doc)
	i := 0
	for {
		a := strings.Index(lower[i:], "<a")
		if a < 0 {
			return out
		}
		a += i
		end := strings.IndexByte(lower[a:], '>')
		if end < 0 {
			return out
		}
		tag := doc[a : a+end]
		if href, ok := toLowerAttrValue(tag, "href"); ok {
			out = append(out, html.UnescapeString(href))
		}
		i = a + end
	}
}

func toLowerAttrValue(tag, name string) (string, bool) {
	lower := strings.ToLower(tag)
	idx := strings.Index(lower, name+"=")
	if idx < 0 {
		return "", false
	}
	rest := tag[idx+len(name)+1:]
	if rest == "" {
		return "", false
	}
	switch rest[0] {
	case '"', '\'':
		q := rest[0]
		endQ := strings.IndexByte(rest[1:], q)
		if endQ < 0 {
			return "", false
		}
		return rest[1 : 1+endQ], true
	default:
		end := strings.IndexAny(rest, " \t\n>")
		if end < 0 {
			end = len(rest)
		}
		return rest[:end], true
	}
}

func toLowerFOAFLink(doc string) (string, bool) {
	lower := strings.ToLower(doc)
	i := 0
	for {
		l := strings.Index(lower[i:], "<link")
		if l < 0 {
			return "", false
		}
		l += i
		end := strings.IndexByte(lower[l:], '>')
		if end < 0 {
			return "", false
		}
		tag := doc[l : l+end]
		rel, _ := toLowerAttrValue(tag, "rel")
		if strings.EqualFold(rel, "meta") {
			if href, ok := toLowerAttrValue(tag, "href"); ok {
				return html.UnescapeString(href), true
			}
		}
		i = l + end
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// unescapedSubstring reports whether link is html.UnescapeString of a
// substring of doc that an attribute value can be: one that starts after
// '=' or a quote and ends at a quote, white space, '>' or the end of doc.
// Unescaping never lengthens a string, so only substrings at least as
// long as link are tried. The search looks at no more than budget
// (start, end) pairs; checked is false when it ran out first.
func unescapedSubstring(doc, link string, budget int) (found, checked bool) {
	if strings.Contains(doc, link) {
		return true, true
	}
	var starts, ends []int
	for i := 0; i < len(doc); i++ {
		switch doc[i] {
		case '=', '"', '\'':
			starts = append(starts, i+1)
		}
		switch doc[i] {
		case '"', '\'', ' ', '\t', '\n', '>':
			ends = append(ends, i)
		}
	}
	ends = append(ends, len(doc))
	for _, i := range starts {
		for _, j := range ends {
			if j-i < len(link) {
				continue
			}
			if budget--; budget < 0 {
				return false, false
			}
			if html.UnescapeString(doc[i:j]) == link {
				return true, true
			}
		}
	}
	return false, true
}

// unescapeBudget bounds unescapedSubstring's search per fuzz input, so a
// document dense in quotes costs milliseconds, not minutes.
const unescapeBudget = 20000

// parserSeeds are documents whose lower-case form is longer than they
// are, next to the shapes the parsers look for.
var parserSeeds = []string{
	"\xff<a href=x>",
	"İ<a href=x>",
	"\xff\xfe<A HREF='http://a/1'>İ<a href=\"http://a/&amp;2\">",
	"\xff<link rel=meta href=http://x/people/a>",
	"İİ<LINK REL=\"META\" HREF='http://x/&lt;p&gt;'>",
	"<a href=\"http://www.amazon.com/exec/obidos/ASIN/0262032937\">b</a>",
	`<link rel="stylesheet" href="/s.css"><link rel="meta" href="http://x/people/alice">`,
}

// TestParsersOnNonASCII is the regression for input whose lower-case form
// has another byte length: strings.ToLower turns the byte 0xff into the
// three bytes of U+FFFD and 'İ' into "i̇", and indices found in the
// lowered text sliced past the end of the original.
func TestParsersOnNonASCII(t *testing.T) {
	for _, tc := range []struct {
		doc   string
		links []string
	}{
		{"\xff<a href=x>", []string{"x"}},
		{"İ<a href=x>", []string{"x"}},
		{"\xff\xfe<A HREF='http://a/1'>İ<a href=\"http://a/&amp;2\">", []string{"http://a/1", "http://a/&2"}},
	} {
		got := ExtractLinks(tc.doc)
		if strings.Join(got, "\n") != strings.Join(tc.links, "\n") {
			t.Errorf("ExtractLinks(%q) = %q, want %q", tc.doc, got, tc.links)
		}
	}
	for doc, want := range map[string]string{
		"\xff<link rel=meta href=http://x/people/a>":      "http://x/people/a",
		"İİ<LINK REL=\"META\" HREF='http://x/&lt;p&gt;'>": "http://x/<p>",
	} {
		if got, ok := FOAFLink(doc); !ok || got != want {
			t.Errorf("FOAFLink(%q) = %q, %v, want %q", doc, got, ok, want)
		}
	}
}

// FuzzExtractLinks: no panic; every link is the unescaped text of a
// substring of the document; on pure-ASCII input the links are the
// strings.ToLower parser's.
func FuzzExtractLinks(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		links := ExtractLinks(doc)
		for _, l := range links {
			if found, checked := unescapedSubstring(doc, l, unescapeBudget); checked && !found {
				t.Fatalf("ExtractLinks(%q) returned %q, which no substring unescapes to", doc, l)
			}
		}
		if isASCII(doc) {
			if want := toLowerExtractLinks(doc); strings.Join(links, "\x00") != strings.Join(want, "\x00") || len(links) != len(want) {
				t.Fatalf("ExtractLinks(%q) = %q, the ToLower parser gives %q", doc, links, want)
			}
		}
	})
}

// FuzzFOAFLink: the same three properties for the FOAF auto-discovery
// link.
func FuzzFOAFLink(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		link, ok := FOAFLink(doc)
		if found, checked := unescapedSubstring(doc, link, unescapeBudget); ok && checked && !found {
			t.Fatalf("FOAFLink(%q) returned %q, which no substring unescapes to", doc, link)
		}
		if isASCII(doc) {
			if wantLink, wantOK := toLowerFOAFLink(doc); link != wantLink || ok != wantOK {
				t.Fatalf("FOAFLink(%q) = %q, %v, the ToLower parser gives %q, %v", doc, link, ok, wantLink, wantOK)
			}
		}
	})
}
