// Package weblog implements the weblog-mining channel of §4: personal
// "online diaries" whose hyperlinks to product pages of large catalogs
// "count as implicit votes for these goods". The paper's infrastructure
// mined All Consuming this way; BLAM!-style explicit machine-readable
// ratings travel through package foaf instead.
//
// Two directions:
//
//   - Render produces an agent's weblog as a small HTML page whose posts
//     link liked books through Amazon-style product URLs (and advertises
//     the agent's FOAF homepage via <link rel="meta">, the convention of
//     the era).
//   - Mine extracts hyperlinks from arbitrary HTML, recognizes
//     catalog-product links (Amazon /exec/obidos/ASIN/… and /dp/…, plus
//     direct urn:isbn: references), maps them to ISBN identifiers — "the
//     mappings between hyperlinks and some sort of unique identifier" §4
//     calls for — and returns them as implicit unit votes.
package weblog

import (
	"context"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"swrec/internal/isbn"
	"swrec/internal/model"
)

// ErrNoFOAFLink is returned when a mined page advertises no FOAF
// homepage, so the votes cannot be attributed to an agent.
var ErrNoFOAFLink = errors.New("weblog: page advertises no FOAF homepage")

// ImplicitVote is the rating value an extracted product link counts as.
// Weblog mentions are positive but weaker evidence than explicit ratings.
const ImplicitVote = 0.6

// Render produces the agent's weblog page. Positively rated products
// become posts with Amazon-style hyperlinks; the FOAF homepage is linked
// via <link rel="meta">. Output is deterministic (products in rating
// order).
func Render(a *model.Agent, comm *model.Community) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<title>%s's weblog</title>\n", html.EscapeString(displayName(a)))
	fmt.Fprintf(&b, "<link rel=\"meta\" type=\"application/rdf+xml\" title=\"FOAF\" href=%q>\n", string(a.ID))
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s's reading diary</h1>\n", html.EscapeString(displayName(a)))
	sym := comm.Symbols()
	for _, e := range a.PositiveRatings() {
		p := sym.ProductAt(e.Ord)
		code := p.ISBN
		if code == "" {
			if raw, ok := isbn.FromURN(string(p.ID)); ok {
				code = raw
			}
		}
		if code == "" {
			continue // not a book with a catalog identifier; nothing to link
		}
		title := p.Title
		if title == "" {
			title = code
		}
		fmt.Fprintf(&b, "<p>Currently reading <a href=\"http://www.amazon.com/exec/obidos/ASIN/%s\">%s</a> — recommended!</p>\n",
			code, html.EscapeString(title))
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

func displayName(a *model.Agent) string {
	if a.Name != "" {
		return a.Name
	}
	return string(a.ID)
}

// ExtractLinks returns the href values of all <a> elements in the HTML,
// in document order. The parser is deliberately tolerant: weblogs of the
// era were rarely valid HTML.
func ExtractLinks(doc string) []string {
	var out []string
	i := 0
	for {
		a := indexFold(doc[i:], "<a")
		if a < 0 {
			return out
		}
		a += i
		end := strings.IndexByte(doc[a:], '>')
		if end < 0 {
			return out
		}
		tag := doc[a : a+end]
		if href, ok := attrValue(tag, "href"); ok {
			out = append(out, html.UnescapeString(href))
		}
		i = a + end
	}
}

// indexFold returns the index of the first occurrence in s of needle, an
// ASCII lower-case string, with ASCII letters compared case-blind; -1 if
// there is none. Tag and attribute names are ASCII, and unlike a search of
// strings.ToLower(s) — which changes the byte length of invalid UTF-8 and
// of runes such as 'İ' — every index it returns is an index into s.
func indexFold(s, needle string) int {
	for i := 0; i+len(needle) <= len(s); i++ {
		j := 0
		for ; j < len(needle); j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				break
			}
		}
		if j == len(needle) {
			return i
		}
	}
	return -1
}

// attrValue extracts a quoted attribute from a tag's text.
func attrValue(tag, name string) (string, bool) {
	idx := indexFold(tag, name+"=")
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

// ProductFromLink maps a hyperlink to a product identifier, implementing
// the link→identifier mapping §4 requires. Recognized forms:
//
//	http://www.amazon.com/exec/obidos/ASIN/<isbn>[/...]
//	http://www.amazon.com/dp/<isbn>[/...]
//	http://www.amazon.com/gp/product/<isbn>[/...]
//	urn:isbn:<isbn>
//
// The ISBN is validated (10 or 13 digits, checksum); ISBN-10s are
// upgraded to the canonical ISBN-13 URN so votes from different link
// styles aggregate onto one product.
func ProductFromLink(link string) (model.ProductID, bool) {
	var code string
	switch {
	case strings.HasPrefix(link, "urn:isbn:"):
		code, _ = isbn.FromURN(link)
	default:
		for _, marker := range []string{"/exec/obidos/ASIN/", "/dp/", "/gp/product/"} {
			if _, rest, ok := strings.Cut(link, marker); ok {
				code = rest
				if i := strings.IndexAny(code, "/?#"); i >= 0 {
					code = code[:i]
				}
				break
			}
		}
	}
	if code == "" || !isbn.Valid(code) {
		return "", false
	}
	if len(strings.ReplaceAll(code, "-", "")) == 10 {
		c13, err := isbn.To13(code)
		if err != nil {
			return "", false
		}
		code = c13
	}
	return model.ProductID(isbn.URN(code)), true
}

// Mine extracts implicit votes from a weblog page for the given author:
// every recognized product link becomes one RatingStatement with value
// ImplicitVote. Repeated links to the same product collapse into one
// statement. Results are ordered by product ID for determinism.
func Mine(author model.AgentID, doc string) []model.RatingStatement {
	seen := map[model.ProductID]bool{}
	var out []model.RatingStatement
	for _, link := range ExtractLinks(doc) {
		pid, ok := ProductFromLink(link)
		if !ok || seen[pid] {
			continue
		}
		seen[pid] = true
		out = append(out, model.RatingStatement{Agent: author, Product: pid, Value: ImplicitVote})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Product < out[j].Product })
	return out
}

// Fetch retrieves a weblog page over HTTP, attributes it to the agent
// whose FOAF homepage it advertises, and returns the implicit votes mined
// from its product links — one full All Consuming-style mining step.
func Fetch(ctx context.Context, client *http.Client, url string) (author model.AgentID, votes []model.RatingStatement, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, url, nil)
	if err != nil {
		return "", nil, fmt.Errorf("weblog: request %s: %w", url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", nil, fmt.Errorf("weblog: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("weblog: fetch %s: status %d", url, resp.StatusCode)
	}
	const maxPageBytes = 4 << 20
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPageBytes))
	if err != nil {
		return "", nil, fmt.Errorf("weblog: read %s: %w", url, err)
	}
	doc := string(body)
	foafURL, ok := FOAFLink(doc)
	if !ok {
		return "", nil, fmt.Errorf("%w: %s", ErrNoFOAFLink, url)
	}
	author = model.AgentID(foafURL)
	return author, Mine(author, doc), nil
}

// FOAFLink extracts the agent's advertised FOAF homepage from a weblog
// page (<link rel="meta" ... href="...">), the auto-discovery convention
// that lets crawlers hop from the human-readable diary to the
// machine-readable homepage.
func FOAFLink(doc string) (string, bool) {
	i := 0
	for {
		l := indexFold(doc[i:], "<link")
		if l < 0 {
			return "", false
		}
		l += i
		end := strings.IndexByte(doc[l:], '>')
		if end < 0 {
			return "", false
		}
		tag := doc[l : l+end]
		rel, _ := attrValue(tag, "rel")
		if strings.EqualFold(rel, "meta") {
			if href, ok := attrValue(tag, "href"); ok {
				return html.UnescapeString(href), true
			}
		}
		i = l + end
	}
}
