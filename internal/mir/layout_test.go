package mir

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestInstrLayout pins the union layout: an Instr fits in 64 bytes, an
// Operand in 16, and no field of Instr can hold a pointer, so instruction
// arrays are allocated without pointers and the garbage collector never
// scans them.
func TestInstrLayout(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 64 {
		t.Errorf("Instr is %d bytes, want at most 64", got)
	}
	if got := unsafe.Sizeof(Operand{}); got > 16 {
		t.Errorf("Operand is %d bytes, want at most 16", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which may hold a pointer", path, typ.Kind())
		}
	}
	walk("Instr", reflect.TypeOf(Instr{}))
}
