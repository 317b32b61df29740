// Package foaf implements the document formats of the paper's deployment
// architecture (§4): machine-readable agent homepages in the spirit of
// FOAF ("Friend of a Friend" [4]) extended with "real" trust relationships
// following Golbeck's proposal, plus product rating statements in the
// style of BLAM!-annotated weblogs — and the globally accessible catalog
// and taxonomy documents of §3.1.
//
// All documents are RDF graphs (package rdf) serialized as N-Triples.
// Trust and rating statements carry continuous values in [-1,+1] and are
// reified through blank nodes, since RDF properties cannot carry edge
// weights directly:
//
//	<alice> foaf:name "Alice" .
//	<alice> rdf:type foaf:Person .
//	<alice> swt:trusts _:t0 .
//	_:t0 swt:agent <bob> .
//	_:t0 swt:value "0.9"^^xsd:decimal .
//	<alice> swt:rates _:r0 .
//	_:r0 swt:product <urn:isbn:9782000000012> .
//	_:r0 swt:value "0.75"^^xsd:decimal .
package foaf

import (
	"errors"
	"fmt"
	"strconv"

	"swrec/internal/model"
	"swrec/internal/rdf"
)

// Vocabulary IRIs. The foaf: and rdf: terms are the standard ones; swt:
// is this system's trust/rating extension namespace.
const (
	RDFType    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	FOAFPerson = "http://xmlns.com/foaf/0.1/Person"
	FOAFName   = "http://xmlns.com/foaf/0.1/name"
	FOAFKnows  = "http://xmlns.com/foaf/0.1/knows"

	SWTNS      = "http://swrec.org/ont/trust#"
	SWTTrusts  = SWTNS + "trusts"
	SWTRates   = SWTNS + "rates"
	SWTAgent   = SWTNS + "agent"
	SWTProduct = SWTNS + "product"
	SWTValue   = SWTNS + "value"
)

var (
	// ErrNoAgent is returned when a document contains no foaf:Person.
	ErrNoAgent = errors.New("foaf: document declares no foaf:Person")
	// ErrMalformed wraps structural errors in homepage documents.
	ErrMalformed = errors.New("foaf: malformed document")
)

// Homepage is the logical content of one agent's machine-readable
// homepage: identity, direct trust statements, and product ratings.
type Homepage struct {
	Agent   model.AgentID
	Name    string
	Trust   []model.TrustStatement
	Ratings []model.RatingStatement
}

// Marshal renders the homepage as an RDF graph. Statement order is
// preserved, blank node labels are deterministic (t0, t1, ..., r0, r1,
// ...), so output is byte-stable for identical input.
func Marshal(h Homepage) *rdf.Graph {
	g := rdf.NewGraph()
	me := rdf.NewIRI(string(h.Agent))
	g.Add(rdf.Triple{Subject: me, Predicate: rdf.NewIRI(RDFType), Object: rdf.NewIRI(FOAFPerson)})
	if h.Name != "" {
		g.Add(rdf.Triple{Subject: me, Predicate: rdf.NewIRI(FOAFName), Object: rdf.NewLiteral(h.Name)})
	}
	for i, st := range h.Trust {
		node := rdf.NewBlank("t" + strconv.Itoa(i))
		g.Add(rdf.Triple{Subject: me, Predicate: rdf.NewIRI(SWTTrusts), Object: node})
		g.Add(rdf.Triple{Subject: node, Predicate: rdf.NewIRI(SWTAgent), Object: rdf.NewIRI(string(st.Dst))})
		g.Add(rdf.Triple{Subject: node, Predicate: rdf.NewIRI(SWTValue), Object: decimal(st.Value)})
		// Positive trust also asserts plain FOAF acquaintance, keeping the
		// document consumable by vanilla FOAF crawlers.
		if st.Value > 0 {
			g.Add(rdf.Triple{Subject: me, Predicate: rdf.NewIRI(FOAFKnows), Object: rdf.NewIRI(string(st.Dst))})
		}
	}
	for i, st := range h.Ratings {
		node := rdf.NewBlank("r" + strconv.Itoa(i))
		g.Add(rdf.Triple{Subject: me, Predicate: rdf.NewIRI(SWTRates), Object: node})
		g.Add(rdf.Triple{Subject: node, Predicate: rdf.NewIRI(SWTProduct), Object: rdf.NewIRI(string(st.Product))})
		g.Add(rdf.Triple{Subject: node, Predicate: rdf.NewIRI(SWTValue), Object: decimal(st.Value)})
	}
	return g
}

// MarshalAgent builds the homepage of agent a as stored in community c.
func MarshalAgent(c *model.Community, a *model.Agent) *rdf.Graph {
	return Marshal(Homepage{
		Agent:   a.ID,
		Name:    a.Name,
		Trust:   c.TrustStatements(a),
		Ratings: c.RatingStatements(a),
	})
}

// Unmarshal extracts the homepage from an RDF graph. The agent is
// identified as the (single expected) subject typed foaf:Person; if
// several are typed, the first in subject order wins (Semantic Web
// documents may legally mention many people; the homepage's own person is
// by convention declared first).
func Unmarshal(g *rdf.Graph) (Homepage, error) {
	typ, person := rdf.NewIRI(RDFType), rdf.NewIRI(FOAFPerson)
	var me rdf.Term
	found := false
	for _, tr := range g.Triples() {
		if tr.Predicate == typ && tr.Object == person && tr.Subject.Kind == rdf.IRI {
			me = tr.Subject
			found = true
			break
		}
	}
	if !found {
		return Homepage{}, ErrNoAgent
	}
	h := Homepage{Agent: model.AgentID(me.Value)}
	if names := g.Objects(me.Value, FOAFName); len(names) > 0 {
		h.Name = names[0].Value
	}
	for _, node := range g.Objects(me.Value, SWTTrusts) {
		dst, v, err := reified(g, node, SWTAgent)
		if err != nil {
			return Homepage{}, fmt.Errorf("trust statement: %w", err)
		}
		h.Trust = append(h.Trust, model.TrustStatement{
			Src: h.Agent, Dst: model.AgentID(dst), Value: v,
		})
	}
	for _, node := range g.Objects(me.Value, SWTRates) {
		prod, v, err := reified(g, node, SWTProduct)
		if err != nil {
			return Homepage{}, fmt.Errorf("rating statement: %w", err)
		}
		h.Ratings = append(h.Ratings, model.RatingStatement{
			Agent: h.Agent, Product: model.ProductID(prod), Value: v,
		})
	}
	return h, nil
}

// ApplyTo merges the homepage's statements into a community view,
// registering bare catalog entries for rated-but-unknown products.
func (h Homepage) ApplyTo(c *model.Community) error {
	a := c.AddAgent(h.Agent)
	if h.Name != "" {
		a.Name = h.Name
	}
	for _, st := range h.Trust {
		if err := c.SetTrust(h.Agent, st.Dst, st.Value); err != nil {
			return err
		}
	}
	for _, st := range h.Ratings {
		if c.Product(st.Product) == nil {
			c.AddProduct(model.Product{ID: st.Product})
		}
		if err := c.SetRating(h.Agent, st.Product, st.Value); err != nil {
			return err
		}
	}
	return nil
}

// reified reads one reification node: its target (under targetPred) and
// its swt:value.
func reified(g *rdf.Graph, node rdf.Term, targetPred string) (target string, value float64, err error) {
	var targets, values []rdf.Term
	tp, vp := rdf.NewIRI(targetPred), rdf.NewIRI(SWTValue)
	for _, tr := range g.Match(&node, &tp, nil) {
		targets = append(targets, tr.Object)
	}
	for _, tr := range g.Match(&node, &vp, nil) {
		values = append(values, tr.Object)
	}
	if len(targets) != 1 || len(values) != 1 {
		return "", 0, fmt.Errorf("%w: node %s needs exactly one target and one value",
			ErrMalformed, node)
	}
	if targets[0].Kind != rdf.IRI {
		return "", 0, fmt.Errorf("%w: target must be an IRI, got %s", ErrMalformed, targets[0])
	}
	v, perr := strconv.ParseFloat(values[0].Value, 64)
	if perr != nil {
		return "", 0, fmt.Errorf("%w: bad decimal %q", ErrMalformed, values[0].Value)
	}
	if !model.InRange(v) { // ParseFloat takes "NaN" for a number
		return "", 0, fmt.Errorf("%w: value %v outside [-1,+1]", ErrMalformed, v)
	}
	return targets[0].Value, v, nil
}

// decimal renders v as an xsd:decimal literal.
func decimal(v float64) rdf.Term {
	return rdf.NewTypedLiteral(strconv.FormatFloat(v, 'f', -1, 64), rdf.XSDDecimal)
}
