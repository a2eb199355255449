package wire

// Canonical reports whether the neighbour object b is read, whole, by the
// scanner's one-pass reading of the form serve writes.
func Canonical(b []byte) bool {
	s := scanner{b: b}
	_, ok := s.canonical()
	return ok && s.pos == len(b)
}
