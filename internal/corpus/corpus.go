// Package corpus persists a community as a tree of Semantic Web
// documents on the local filesystem — the at-rest form of the paper's
// architecture (§3.1, §4): one N-Triples homepage per agent under
// people/, plus the globally accessible taxonomy.nt and catalog.nt.
//
// A corpus directory is self-contained and re-importable; it is also
// exactly what a web server would publish (semweb.Site serves the same
// document bytes), so exported corpora double as fixtures for crawler
// tests and as an interchange format between installations.
//
// Layout:
//
//	<dir>/taxonomy.nt        the taxonomy C (absent if the community has none)
//	<dir>/catalog.nt         products B with descriptor assignments f
//	<dir>/people/<hash>.nt   one homepage per agent
//	<dir>/MANIFEST           agent-URI → file name index, one "uri\tfile" per line
//
// Homepage file names are derived from a hash of the agent URI: agent
// URIs are not generally valid file names, and the MANIFEST keeps the
// mapping explicit and greppable.
package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"swrec/internal/foaf"
	"swrec/internal/model"
	"swrec/internal/rdf"
)

const (
	taxonomyFile = "taxonomy.nt"
	catalogFile  = "catalog.nt"
	peopleDir    = "people"
	manifestFile = "MANIFEST"
)

var (
	// ErrNoManifest is returned when a directory lacks the MANIFEST.
	ErrNoManifest = errors.New("corpus: missing MANIFEST")
	// ErrBadManifest wraps malformed manifest lines.
	ErrBadManifest = errors.New("corpus: malformed MANIFEST")
)

// fileName derives a stable file name for an agent URI.
func fileName(id model.AgentID) string {
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:12]) + ".nt"
}

// Export writes the community to dir, creating it if needed. Existing
// corpus files in dir are overwritten; unrelated files are left alone.
func Export(comm *model.Community, dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, peopleDir), 0o755); err != nil {
		return fmt.Errorf("corpus: mkdir: %w", err)
	}
	if comm.Taxonomy() != nil {
		doc := foaf.MarshalTaxonomy(comm.Taxonomy()).Marshal()
		if err := writeFile(filepath.Join(dir, taxonomyFile), doc); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(dir, catalogFile), foaf.MarshalCatalog(comm).Marshal()); err != nil {
		return err
	}
	var manifest strings.Builder
	for _, id := range comm.Agents() {
		name := fileName(id)
		doc := foaf.MarshalAgent(comm, comm.Agent(id)).Marshal()
		if err := writeFile(filepath.Join(dir, peopleDir, name), doc); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "%s\t%s\n", id, name)
	}
	return writeFile(filepath.Join(dir, manifestFile), manifest.String())
}

// writeFile writes content atomically enough for a corpus (temp +
// rename).
func writeFile(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return fmt.Errorf("corpus: write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("corpus: rename %s: %w", path, err)
	}
	return nil
}

// Import loads a corpus directory into a fresh community. Homepages are
// applied in manifest order, so re-importing an Export round-trips the
// community exactly (verified by property test).
func Import(dir string) (*model.Community, error) {
	manifest, err := os.Open(filepath.Join(dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w in %s", ErrNoManifest, dir)
		}
		return nil, fmt.Errorf("corpus: open manifest: %w", err)
	}
	defer manifest.Close()

	comm, err := importGlobals(dir)
	if err != nil {
		return nil, err
	}

	sc := bufio.NewScanner(manifest)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		uri, name, ok := strings.Cut(line, "\t")
		if !ok || uri == "" || name == "" || strings.Contains(name, "/") {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadManifest, lineNo, line)
		}
		data, err := os.ReadFile(filepath.Join(dir, peopleDir, name))
		if err != nil {
			return nil, fmt.Errorf("corpus: homepage %s: %w", name, err)
		}
		g, err := rdf.ParseString(string(data))
		if err != nil {
			return nil, fmt.Errorf("corpus: homepage %s: %w", name, err)
		}
		h, err := foaf.Unmarshal(g)
		if err != nil {
			return nil, fmt.Errorf("corpus: homepage %s: %w", name, err)
		}
		if h.Agent != model.AgentID(uri) {
			return nil, fmt.Errorf("corpus: homepage %s declares %s, manifest says %s",
				name, h.Agent, uri)
		}
		if err := h.ApplyTo(comm); err != nil {
			return nil, fmt.Errorf("corpus: homepage %s: %w", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: manifest: %w", err)
	}
	if err := comm.Validate(); err != nil {
		return nil, fmt.Errorf("corpus: imported view violates model invariants: %w", err)
	}
	return comm, nil
}

// importGlobals loads taxonomy.nt (optional) and catalog.nt (optional)
// into a fresh community.
func importGlobals(dir string) (*model.Community, error) {
	comm := model.NewCommunity(nil)
	if data, err := os.ReadFile(filepath.Join(dir, taxonomyFile)); err == nil {
		g, err := rdf.ParseString(string(data))
		if err != nil {
			return nil, fmt.Errorf("corpus: taxonomy: %w", err)
		}
		tax, err := foaf.UnmarshalTaxonomy(g)
		if err != nil {
			return nil, fmt.Errorf("corpus: taxonomy: %w", err)
		}
		comm = model.NewCommunity(tax)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("corpus: taxonomy: %w", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, catalogFile)); err == nil {
		g, err := rdf.ParseString(string(data))
		if err != nil {
			return nil, fmt.Errorf("corpus: catalog: %w", err)
		}
		if err := foaf.UnmarshalCatalog(g, comm); err != nil {
			return nil, fmt.Errorf("corpus: catalog: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("corpus: catalog: %w", err)
	}
	return comm, nil
}
