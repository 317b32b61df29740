// Package weblog is a fixture miniature of a crawled-bytes parser: a
// number read from a fetched page is as hostile as a length field in a
// frame, so it must be bounded before it sizes an allocation.
package weblog

// digits parses the leading decimal digits of a crawled attribute.
func digits(attr string) int {
	n := 0
	for i := 0; i < len(attr) && attr[i] >= '0' && attr[i] <= '9'; i++ {
		n = n*10 + int(attr[i]-'0')
	}
	return n
}

// LinksUnbounded sizes its result from a count the page declares.
func LinksUnbounded(attr string) []string {
	n := digits(attr)
	return make([]string, 0, n) // want `make sized from unvalidated n`
}

// LinksBounded clamps the declared count by the page's own length.
func LinksBounded(attr, page string) []string {
	n := min(digits(attr), len(page))
	return make([]string, 0, n)
}
