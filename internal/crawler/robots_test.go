package crawler

import (
	"context"
	"testing"

	"swrec/internal/model"
	"swrec/internal/semweb"
)

func TestParseRobots(t *testing.T) {
	doc := `# comment
User-agent: *
Disallow: /private/
Disallow: /tmp

User-agent: googlebot
Disallow: /

User-agent: swrec
Disallow: /swrec-only/
`
	r := parseRobots(doc)
	// The "*" group and the "swrec" group both apply.
	cases := []struct {
		path  string
		allow bool
	}{
		{"/people/alice", true},
		{"/private/alice", false},
		{"/tmpfile", false}, // prefix match, per the 1994 REP
		{"/swrec-only/x", false},
		{"/", true},
	}
	for _, c := range cases {
		if got := r.allows(c.path); got != c.allow {
			t.Errorf("allows(%s) = %v, want %v", c.path, got, c.allow)
		}
	}
	// The googlebot-only group must not apply to us.
	if !r.allows("/anything-else") {
		t.Error("foreign group leaked into our rules")
	}
}

func TestParseRobotsGroupBoundaries(t *testing.T) {
	// A User-agent line after directives starts a fresh group: the "*"
	// here shares a group with googlebot, separate from the first group.
	doc := `User-agent: somebot
Disallow: /somebot/

User-agent: googlebot
User-agent: *
Disallow: /shared/
`
	r := parseRobots(doc)
	if r.allows("/shared/x") {
		t.Error("multi-agent group not honored")
	}
	if !r.allows("/somebot/x") {
		t.Error("foreign group applied")
	}
}

func TestParseRobotsEmptyAndGarbage(t *testing.T) {
	if r := parseRobots(""); !r.allows("/anything") {
		t.Error("empty robots must allow all")
	}
	if r := parseRobots("random text\nwithout structure"); !r.allows("/x") {
		t.Error("garbage robots must allow all")
	}
	// Empty Disallow means allow-all.
	if r := parseRobots("User-agent: *\nDisallow:\n"); !r.allows("/x") {
		t.Error("empty Disallow must allow all")
	}
}

func TestNilRulesAllowAll(t *testing.T) {
	var r *robotsRules
	if !r.allows("/x") {
		t.Error("nil rules (no robots.txt) must allow all")
	}
}

func TestCrawlHonorsRobots(t *testing.T) {
	in, site := publishWeb(t)
	site.Robots = "User-agent: *\nDisallow: /people/carol\n"

	cr := &Crawler{Client: in.Client()}
	res, err := cr.Crawl(context.Background(), "", "", []model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RobotsDenied != 1 {
		t.Fatalf("RobotsDenied = %d, want 1", res.Stats.RobotsDenied)
	}
	// carol's homepage was not fetched, so her own statements (and the
	// chain behind her) are missing; alice and bob are present.
	if got := len(res.Community.Agent(site.AgentURL("carol")).TrustedPeers()); got != 0 {
		t.Fatalf("disallowed homepage was crawled: %d trust edges", got)
	}
	if !res.Community.HasAgent(site.AgentURL("bob")) {
		t.Fatal("allowed agents missing")
	}
	if res.Community.HasAgent(site.AgentURL("dave")) {
		t.Fatal("agents behind the robots wall should be unreachable")
	}

	// IgnoreRobots overrides.
	rude := &Crawler{Client: in.Client(), IgnoreRobots: true}
	res2, err := rude.Crawl(context.Background(), "", "", []model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.RobotsDenied != 0 {
		t.Fatalf("IgnoreRobots still denied %d", res2.Stats.RobotsDenied)
	}
	if got := len(res2.Community.Agent(site.AgentURL("carol")).TrustedPeers()); got == 0 {
		t.Fatal("IgnoreRobots should crawl carol")
	}
}

func TestRobotsCacheFetchesOncePerHost(t *testing.T) {
	in, site := publishWeb(t)
	_ = site
	rc := newRobotsCache(in.Client(), 0)
	ctx := context.Background()
	// Multiple checks against the same host hit the network once; we
	// can't count requests directly, but repeated calls must be
	// consistent and cheap.
	for i := 0; i < 5; i++ {
		if !rc.allowed(ctx, string(site.AgentURL("alice"))) {
			t.Fatal("default robots must allow")
		}
	}
	if len(rc.rules) != 1 {
		t.Fatalf("rules cached for %d hosts, want 1", len(rc.rules))
	}
	// Unknown host: allow (no robots.txt reachable).
	if !rc.allowed(ctx, "http://down.example/people/x") {
		t.Fatal("unreachable robots.txt must allow")
	}
	// Unparsable URL: allow.
	if !rc.allowed(ctx, "::bogus::") {
		t.Fatal("bogus URL must be allowed through to fetch-time failure")
	}
}

func TestSiteServesRobots(t *testing.T) {
	in, site := publishWeb(t)
	resp, err := in.Client().Get(site.BaseURL() + "/robots.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	_ = semweb.ContentTypeNTriples // keep the semweb import for the helper
}
