package la

import "fmt"

// Span is a half-open index window [Lo, Hi) into a Vec. A rank-distributed
// solve describes a rank's owned+ghost rows as a list of spans, and its
// Krylov vectors are stored packed on them (Pack): the window entries
// concatenated in window order, O(n/P) per rank. Only what an operator
// kernel indexes stays full length on a rank: the buffers a vector is
// unpacked into to cross an operator or preconditioner apply, the V-cycle
// level vectors and the smoother's work vectors, which the *Spans
// operations below window to the rank's rows.
//
// Every *Spans operation below takes a nil span list to mean the whole
// vector: the shared-memory solve is the one-window case of the same
// loops, element for element, so code written over a layout needs no
// second branch for "no layout".
type Span struct{ Lo, Hi int }

// windows resolves a span list against v: nil is the whole vector.
func (v Vec) windows(spans []Span) []Span {
	if spans == nil {
		return []Span{{0, len(v)}}
	}
	return spans
}

// AppendSpan appends [lo, hi) to spans, extending the last span instead
// when it ends exactly at lo — so ascending runs of adjacent windows merge.
func AppendSpan(spans []Span, lo, hi int) []Span {
	if n := len(spans); n > 0 && spans[n-1].Hi == lo {
		spans[n-1].Hi = hi
		return spans
	}
	return append(spans, Span{Lo: lo, Hi: hi})
}

// SpansLen returns the number of entries the spans cover: the length of a
// vector packed on them.
func SpansLen(spans []Span) int {
	n := 0
	for _, s := range spans {
		n += s.Hi - s.Lo
	}
	return n
}

// Pack writes src's entries on the spans, in span order, into v: v is src
// packed on the spans, len(v) == SpansLen(spans).
func (v Vec) Pack(src Vec, spans []Span) {
	at := 0
	for _, s := range spans {
		at += copy(v[at:], src[s.Lo:s.Hi])
	}
}

// Unpack writes the packed vector src into v's windows, the inverse of
// Pack; v's entries outside the spans keep their values.
func (v Vec) Unpack(src Vec, spans []Span) {
	at := 0
	for _, s := range spans {
		at += copy(v[s.Lo:s.Hi], src[at:])
	}
}

// PackedSpans returns each span of sub as offsets into a vector packed on
// spans: the i-th result is sub[i] in the packed layout. Both lists must be
// ascending, and each span of sub must lie inside one span of spans.
func PackedSpans(sub, spans []Span) []Span {
	out := make([]Span, 0, len(sub))
	k, at := 0, 0 // spans[k] starts at packed offset at
	for _, s := range sub {
		for k < len(spans) && spans[k].Hi < s.Hi {
			at += spans[k].Hi - spans[k].Lo
			k++
		}
		if k == len(spans) || s.Lo < spans[k].Lo {
			panic(fmt.Sprintf("la: PackedSpans: [%d,%d) is not inside one window", s.Lo, s.Hi))
		}
		lo := at + s.Lo - spans[k].Lo
		out = append(out, Span{Lo: lo, Hi: lo + s.Hi - s.Lo})
	}
	return out
}

// ZeroSpans zeroes v on the spans.
func (v Vec) ZeroSpans(spans []Span) {
	for _, s := range v.windows(spans) {
		w := v[s.Lo:s.Hi]
		for i := range w {
			w[i] = 0
		}
	}
}

// CopySpans copies src into v on the spans.
func (v Vec) CopySpans(src Vec, spans []Span) {
	for _, s := range v.windows(spans) {
		copy(v[s.Lo:s.Hi], src[s.Lo:s.Hi])
	}
}

// AXPYSpans computes v += alpha*x on the spans.
func (v Vec) AXPYSpans(alpha float64, x Vec, spans []Span) {
	for _, s := range v.windows(spans) {
		w, u := v[s.Lo:s.Hi], x[s.Lo:s.Hi]
		for i := range w {
			w[i] += alpha * u[i]
		}
	}
}

// AYPXSpans computes v = alpha*v + x on the spans.
func (v Vec) AYPXSpans(alpha float64, x Vec, spans []Span) {
	for _, s := range v.windows(spans) {
		w, u := v[s.Lo:s.Hi], x[s.Lo:s.Hi]
		for i := range w {
			w[i] = alpha*w[i] + u[i]
		}
	}
}

// PointwiseMultSpans computes v = a.*b on the spans.
func (v Vec) PointwiseMultSpans(a, b Vec, spans []Span) {
	for _, s := range v.windows(spans) {
		w, p, q := v[s.Lo:s.Hi], a[s.Lo:s.Hi], b[s.Lo:s.Hi]
		for i := range w {
			w[i] = p[i] * q[i]
		}
	}
}
