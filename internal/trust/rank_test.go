package trust

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRankIsPointerFree holds Rank to what a cached neighborhood relies
// on: a peer named by its ordinal alone, so an array of ranks holds
// nothing the garbage collector scans, 16 bytes each.
func TestRankIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Rank{}); n != 16 {
		t.Errorf("Rank is %d bytes, want 16", n)
	}
	if path, ok := pointerIn(reflect.TypeOf(Rank{}), "Rank"); ok {
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
