package la

// Span is a half-open index window [Lo, Hi) into a Vec. Rank-distributed
// solves carry a list of spans describing the owned+ghost rows of a
// rank's full-length vector copy, so BLAS-1 work stays O(n/P) per rank.
// Storage does not: every rank allocates full-length vectors for index
// compatibility, and the windows of neighbouring ranks share pages.
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

// ScaleSpans multiplies v by alpha on the spans.
func (v Vec) ScaleSpans(alpha float64, spans []Span) {
	for _, s := range v.windows(spans) {
		w := v[s.Lo:s.Hi]
		for i := range w {
			w[i] *= alpha
		}
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
