package shortcut

// Fills returns how many lazily built shortcuts have filled their edge
// lists so far.
func Fills() int64 { return fills.Load() }

// Filled reports whether s holds its edge lists, rather than a flooding
// state it has yet to fill them from.
func Filled(s *Shortcut) bool { return s.flood.Load() == nil }

// ProbeParts runs e's probe on s, a shortcut over e's graph, tree and part
// family, and also returns how many parts it walked.
func ProbeParts(e *EccProbe, s *Shortcut) (ecc, probed int, err error) {
	return s.maxAugmentedEcc(e)
}

// MaxAugmentedEccUnpruned is MaxAugmentedEcc with every part probed in
// index order, whatever the shortcut.
func MaxAugmentedEccUnpruned(s *Shortcut) (int, error) {
	ecc, _, err := s.maxAugmentedEcc(nil)
	return ecc, err
}
