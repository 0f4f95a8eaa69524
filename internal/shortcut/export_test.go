package shortcut

// Fills returns how many flood-built shortcuts have filled their edge
// lists so far.
func Fills() int64 { return fills.Load() }

// Passes returns how many flood passes (measureFloodState) have run so
// far: one per construction the closed form does not measure, one per
// generated state and one per FromFloodState check.
func Passes() int64 { return passes.Load() }

// Filled reports whether s holds its edge lists: an edge-built shortcut
// always does, a flood-built one after its first Edges call.
func Filled(s *Shortcut) bool { return s.flood == nil || s.edges != nil }

// ProbeParts runs e's probe on s, a shortcut over e's graph, tree and part
// family, and also returns how many parts it walked.
func ProbeParts(e *EccProbe, s *Shortcut) (ecc, probed int, err error) {
	return s.maxAugmentedEcc(e)
}

// MaxAugmentedEccUnpruned is MaxAugmentedEcc with every part probed in
// index order, whatever the shortcut's kind.
func MaxAugmentedEccUnpruned(s *Shortcut) (int, error) {
	ecc, _, err := s.maxAugmentedEcc(nil)
	return ecc, err
}
