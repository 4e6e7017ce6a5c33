package netdesc

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fill sets v and everything under it to a value that is not zero, one
// element per slice and map; an mdl config stays unset.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int:
		v.SetInt(-12)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Map:
		if v.Type().Elem().Kind() != reflect.Interface {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e)
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(reflect.ValueOf("k"), e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	}
}

// holding returns a description whose only content past its required
// fields is v, a value of one of the schema types.
func holding(v reflect.Value) *Desc {
	d := &Desc{Nodes: []Node{}, Links: [][2]string{}, FIB: map[string][]Rule{}}
	switch x := v.Interface().(type) {
	case Desc:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				reflect.ValueOf(d).Elem().Field(i).Set(v.Field(i))
			}
		}
	case Node:
		d.Nodes = []Node{x}
	case Box:
		d.Nodes = []Node{{Box: &x}}
	case ACLRule:
		d.Nodes = []Node{{Box: &Box{ACL: []ACLRule{x}}}}
	case Rule:
		d.FIB["k"] = []Rule{x}
	case Invariant:
		d.Invariants = []Invariant{x}
	}
	return d
}

// takes requires the reader, not encoding/json, to decode data, and to
// decode it as encoding/json does.
func takes(t *testing.T, data []byte) {
	t.Helper()
	want, err := decodeStrict(data, "")
	if err != nil {
		t.Fatalf("encoding/json refuses the document: %v", err)
	}
	got, ok := readCanonical(data)
	if !ok {
		t.Fatal("the reader declines the document: it would decode by reflection")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the reader and encoding/json disagree:\n%+v\n%+v", got, want)
	}
}

// TestReaderCoversSchema keeps every input Encode writes on the reader: a
// document setting any one json tag of the six schema types, every
// generator's output, exported from its network too, and every committed
// example.
// A field added to the schema fails here until the reader reads it.
func TestReaderCoversSchema(t *testing.T) {
	for _, v := range []any{Desc{}, Node{}, Box{}, ACLRule{}, Rule{}, Invariant{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			t.Run(typ.Name()+"."+tag, func(t *testing.T) {
				val := reflect.New(typ).Elem()
				if tag == "config" {
					// Declined on purpose: encoding/json types its values.
					val.Field(i).Set(reflect.ValueOf(map[string]any{"acl": 1.0}))
					data, err := Encode(holding(val))
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := readCanonical(data); ok {
						t.Fatal("the reader takes an mdl config")
					}
					return
				}
				fill(val.Field(i))
				data, err := Encode(holding(val))
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(data), `"`+tag+`":`) {
					t.Fatalf("the document does not set %q:\n%s", tag, data)
				}
				takes(t, data)
			})
		}
	}
	descs := generators()
	for name, d := range generators() {
		net, invs, err := Build(d, "")
		if err != nil {
			t.Fatal(err)
		}
		if descs[name+"-exported"], err = FromNetwork(name, net, invs); err != nil {
			t.Fatal(err)
		}
	}
	for name, d := range descs {
		t.Run(name, func(t *testing.T) {
			data, err := Encode(d)
			if err != nil {
				t.Fatal(err)
			}
			takes(t, data)
		})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "topologies", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example topologies: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			takes(t, data)
		})
	}
}

// BenchmarkDecodeVPC loads the 2 048-tenant CloudVPC description the vpc-*
// workloads start from: Decode (strict JSON and Validate) alone, and
// decodeJSON then Build as a file load does.
func BenchmarkDecodeVPC(b *testing.B) {
	data, err := Encode(CloudVPC(VPCConfig{Tenants: 2048, Shapes: 8, Peerings: 2, CrossChecks: 8}))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data, "vpc.json"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode+build", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			d, err := decodeJSON(data, "vpc.json")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := Build(d, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}
