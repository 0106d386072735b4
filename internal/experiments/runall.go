package experiments

// ByID runs a single experiment by its identifier ("E1" … "E11"), returning
// nil for unknown IDs.
func ByID(id string, seed uint64) *Report {
	switch id {
	case "E1":
		return E1(ClassifyOptions{Seed: seed})
	case "E2":
		return E2(SynonymOptions{Seed: seed})
	case "E3":
		return E3(RuleGenOptions{Seed: seed})
	case "E4":
		return E4(ExecOptions{Seed: seed})
	case "E5":
		return E5(ExecOptions{Seed: seed})
	case "E6":
		return E6(EvalOptions{Seed: seed})
	case "E7":
		return E7(SisterOptions{Seed: seed})
	case "E8":
		return E8(SisterOptions{Seed: seed})
	case "E9":
		return E9(SisterOptions{Seed: seed})
	case "E10":
		return E10(ClassifyOptions{Seed: seed})
	case "E11":
		return E11(ExecOptions{Seed: seed})
	default:
		return nil
	}
}
