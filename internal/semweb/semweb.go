// Package semweb simulates the decentralized publication side of the
// paper's architecture (§2, §4): "all information about agents a_i, their
// trust relationships t_i and ratings r_i [is] stored in machine-readable
// homepages distributed throughout the Web", while the taxonomy and the
// product catalog "hold globally and therefore offer public
// accessibility".
//
// Two pieces:
//
//   - Site is an http.Handler publishing one community: per-agent FOAF
//     homepages under /people/<name>, the catalog under /catalog.nt and
//     the taxonomy under /taxonomy.nt, all as N-Triples.
//   - Internet is a virtual network mapping host names to handlers and
//     exposing an *http.Client whose transport dispatches in-process. It
//     lets tests and experiments run a many-host "Semantic Web" without
//     sockets, while the same Site serves real listeners in cmd/crawld.
//
// The substitution is documented in DESIGN.md: the real deployment used
// FOAF homepages and BLAM!-annotated weblogs; this package preserves the
// code path (publish → HTTP fetch → RDF parse → local materialization).
package semweb

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"swrec/internal/foaf"
	"swrec/internal/model"
	"swrec/internal/rdf"
	"swrec/internal/weblog"
)

// Media types served. N-Triples is the default; Turtle and RDF/XML are
// served when the client asks for them via Accept.
const (
	ContentTypeNTriples = "application/n-triples"
	ContentTypeTurtle   = "text/turtle"
	ContentTypeRDFXML   = "application/rdf+xml"
)

// Site publishes one community as a set of Semantic Web documents.
// Agent IDs in the community must be of the form
// "http://<host>/people/<name>" for their homepages to be routable.
type Site struct {
	host string
	comm *model.Community //nolint:snapshotpin -- the simulated site's authoritative source community; it feeds crawls and never reads from an engine snapshot
	// Robots, when non-empty, is served verbatim as /robots.txt; by
	// default the site serves an allow-all file. Tests and experiments
	// use it to verify the crawler's robots compliance.
	Robots string
}

// NewSite creates a site for the community under the given virtual host
// (e.g. "swrec.example").
func NewSite(host string, comm *model.Community) *Site {
	return &Site{host: host, comm: comm}
}

// Host returns the site's virtual host name.
func (s *Site) Host() string { return s.host }

// Community returns the community the site publishes. Mutations are
// reflected by subsequent requests (documents are rendered on demand),
// with fresh ETags — the "weblog update" scenario of §4.
func (s *Site) Community() *model.Community { return s.comm }

// BaseURL returns "http://<host>".
func (s *Site) BaseURL() string { return "http://" + s.host }

// AgentURL returns the homepage URL (and thus the AgentID) for a person
// name on this site.
func (s *Site) AgentURL(name string) model.AgentID {
	return model.AgentID(s.BaseURL() + "/people/" + name)
}

// TaxonomyURL returns the site's public taxonomy document URL.
func (s *Site) TaxonomyURL() string { return s.BaseURL() + "/taxonomy.nt" }

// CatalogURL returns the site's public catalog document URL.
func (s *Site) CatalogURL() string { return s.BaseURL() + "/catalog.nt" }

// ServeHTTP implements http.Handler. Documents carry strong ETags (a
// hash of the serialized content); a matching If-None-Match yields 304
// Not Modified, which is how re-crawls "ensure data freshness" (§4.1)
// without re-transferring unchanged homepages. Clients sending
// "Accept: text/turtle" receive Turtle instead of N-Triples.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var g *rdf.Graph
	switch {
	case r.URL.Path == "/robots.txt":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Robots != "" {
			fmt.Fprint(w, s.Robots)
		} else {
			fmt.Fprint(w, "User-agent: *\nDisallow:\n")
		}
		return
	case r.URL.Path == "/taxonomy.nt":
		if s.comm.Taxonomy() == nil {
			http.NotFound(w, r)
			return
		}
		g = foaf.MarshalTaxonomy(s.comm.Taxonomy())
	case r.URL.Path == "/catalog.nt":
		g = foaf.MarshalCatalog(s.comm)
	case strings.HasPrefix(r.URL.Path, "/people/"):
		id := model.AgentID(s.BaseURL() + r.URL.Path)
		a := s.comm.Agent(id)
		if a == nil {
			http.NotFound(w, r)
			return
		}
		g = foaf.MarshalAgent(s.comm, a)
	case strings.HasPrefix(r.URL.Path, "/blog/"):
		// The human-readable weblog (§4): implicit votes as hyperlinks,
		// FOAF homepage advertised for auto-discovery.
		name := strings.TrimPrefix(r.URL.Path, "/blog/")
		a := s.comm.Agent(s.AgentURL(name))
		if a == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, weblog.Render(a, s.comm))
		return
	default:
		http.NotFound(w, r)
		return
	}
	s.serveGraph(w, r, g)
}

// BlogURL returns the weblog URL for a person name on this site.
func (s *Site) BlogURL(name string) string { return s.BaseURL() + "/blog/" + name }

// serveGraph negotiates the syntax, sets the ETag, and honors
// If-None-Match.
func (s *Site) serveGraph(w http.ResponseWriter, r *http.Request, g *rdf.Graph) {
	doc := g.Marshal()
	ctype := ContentTypeNTriples
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, ContentTypeTurtle):
		doc = g.MarshalTurtle()
		ctype = ContentTypeTurtle
	case strings.Contains(accept, ContentTypeRDFXML):
		// The type FOAF auto-discovery advertises (§4).
		xmlDoc, err := g.MarshalRDFXML()
		if err != nil {
			http.Error(w, "cannot serialize as RDF/XML", http.StatusNotAcceptable)
			return
		}
		doc, ctype = xmlDoc, ContentTypeRDFXML
	}
	etag := fmt.Sprintf(`"%x"`, sha256.Sum256([]byte(doc)))
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", ctype)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	fmt.Fprint(w, doc)
}

// Internet is a virtual network of named hosts. The zero value is ready
// to use. It is safe for concurrent use.
type Internet struct {
	mu    sync.RWMutex
	hosts map[string]http.Handler
}

// Register binds a handler to a virtual host name, replacing any previous
// binding.
func (in *Internet) Register(host string, h http.Handler) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.hosts == nil {
		in.hosts = make(map[string]http.Handler)
	}
	in.hosts[host] = h
}

// RegisterSite binds a site under its own host.
func (in *Internet) RegisterSite(s *Site) { in.Register(s.Host(), s) }

// RoundTrip dispatches the request to the registered handler in-process.
// Unknown hosts yield a synthetic 502, mirroring an unreachable server —
// crawlers must tolerate those (§2: no superordinate authority guarantees
// availability).
func (in *Internet) RoundTrip(req *http.Request) (*http.Response, error) {
	in.mu.RLock()
	h := in.hosts[req.URL.Host]
	in.mu.RUnlock()
	if h == nil {
		rec := httptest.NewRecorder()
		http.Error(rec, "host unreachable: "+req.URL.Host, http.StatusBadGateway)
		return rec.Result(), nil
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// Client returns an *http.Client whose transport is this virtual network.
func (in *Internet) Client() *http.Client {
	return &http.Client{Transport: in}
}
