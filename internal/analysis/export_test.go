package analysis

// RefAnalyze exposes the reference analysis of ref_test.go to the
// external differential tests, which need the bug programs (package bugs
// imports analysis).
var RefAnalyze = refAnalyze
