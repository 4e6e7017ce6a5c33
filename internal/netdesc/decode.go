package netdesc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/netverify/vmn/internal/pkt"
)

// Decode parses and validates a description. file is used only for error
// reporting (may be empty). Decoding is strict — unknown fields, type
// mismatches, trailing data and every semantic inconsistency are
// rejected — and never panics, whatever the input.
func Decode(data []byte, file string) (*Desc, error) {
	d, err := decodeJSON(data, file)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(file); err != nil {
		return nil, err
	}
	return d, nil
}

// Validate checks the full semantic well-formedness of a description:
// it runs the pass Build builds from and drops what the pass yields, so
// a valid description always builds (an mdl bundle's file access aside).
// file is used only for error reporting.
func (d *Desc) Validate(file string) error {
	if _, err := d.parse(file); err != nil {
		return err
	}
	return nil
}

// decodeJSON is the strict JSON half of Decode: unknown fields, type
// mismatches and trailing data are rejected, semantics are not checked.
// The canonical form is read without reflection (readCanonical); every
// other input, and so every error, is encoding/json's (decodeStrict).
func decodeJSON(data []byte, file string) (*Desc, error) {
	if d, ok := readCanonical(data); ok {
		return d, nil
	}
	return decodeStrict(data, file)
}

// decodeStrict decodes data with encoding/json and DisallowUnknownFields.
func decodeStrict(data []byte, file string) (*Desc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Desc
	if err := dec.Decode(&d); err != nil {
		return nil, decodeError(data, file, err)
	}
	// A description is exactly one JSON value.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &Error{File: file, Msg: "trailing data after description"}
	}
	return &d, nil
}

// decodeError converts an encoding/json error into a *Error, recovering
// the line number from the byte offset where the library reports one.
func decodeError(data []byte, file string, err error) *Error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return &Error{File: file, Line: lineAt(data, syn.Offset), Msg: syn.Error()}
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return &Error{File: file, Line: lineAt(data, typ.Offset), Field: typ.Field,
			Msg: fmt.Sprintf("cannot decode %s into %s", typ.Value, typ.Type)}
	}
	// DisallowUnknownFields reports a plain error of the form
	// `json: unknown field "frobnicate"`; surface the field name.
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		field := strings.Trim(strings.TrimPrefix(msg, "json: unknown field "), "\"")
		return &Error{File: file, Field: field, Msg: "unknown field"}
	}
	return &Error{File: file, Msg: err.Error()}
}

func lineAt(data []byte, offset int64) int {
	if offset < 0 || offset > int64(len(data)) {
		return 0
	}
	return 1 + bytes.Count(data[:offset], []byte{'\n'})
}

// ParsePrefix parses the format's prefix syntax: "*" (or any "/0") is
// match-all, a bare address is /32, otherwise CIDR. The result is
// canonical — host bits masked off, one match-all value — so two
// spellings of one prefix are one ACL key, one coalescing key and one
// fingerprint.
func ParsePrefix(s string) (pkt.Prefix, error) {
	if s == "" || s == "*" {
		return pkt.Prefix{}, nil
	}
	addrStr, lenStr, ok := strings.Cut(s, "/")
	a, err := pkt.ParseAddr(addrStr)
	if err != nil {
		return pkt.Prefix{}, err
	}
	if !ok {
		return pkt.HostPrefix(a), nil
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || n > 32 {
		return pkt.Prefix{}, fmt.Errorf("malformed prefix length in %q", s)
	}
	if n == 0 {
		return pkt.Prefix{}, nil
	}
	return pkt.Prefix{Addr: a &^ (1<<(32-n) - 1), Len: n}, nil
}

// FormatPrefix renders a prefix in the canonical on-disk form ParsePrefix
// accepts: "*" for match-all, a bare address for /32, CIDR otherwise.
func FormatPrefix(p pkt.Prefix) string {
	if p.Len <= 0 {
		return "*"
	}
	if p.Len >= 32 {
		return p.Addr.String()
	}
	return p.String()
}
