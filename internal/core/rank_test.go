package core

import (
	"reflect"
	"testing"
	"unsafe"

	"swrec/internal/model"
	"swrec/internal/trust"
)

// TestPeerRankIsPointerFree holds PeerRank to what the engine's caches
// rely on: a peer named by its ordinal alone, so a cached or restored
// ranking holds nothing the garbage collector scans, 32 bytes a peer.
func TestPeerRankIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(PeerRank{}); n != 32 {
		t.Errorf("PeerRank is %d bytes, want 32", n)
	}
	if path, ok := pointerIn(reflect.TypeOf(PeerRank{}), "PeerRank"); ok {
		t.Errorf("%s holds a pointer", path)
	}
}

// pointerIn returns the path of the first field of t, itself included,
// whose kind holds a pointer.
func pointerIn(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path, true
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			if p, ok := pointerIn(t.Field(i).Type, path+"."+t.Field(i).Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// nameOf returns the URI of the agent with ordinal ord in c.
func nameOf(c *model.Community, ord int32) model.AgentID {
	id, _ := c.Symbols().AgentID(ord)
	return id
}

// ranks reports whether nb ranks the agent id of c.
func ranks(c *model.Community, nb *trust.Neighborhood, id model.AgentID) bool {
	for _, r := range nb.Ranks {
		if nameOf(c, r.Ord()) == id {
			return true
		}
	}
	return false
}
