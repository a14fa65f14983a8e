package transform

// RefApply exposes the reference rewrite of ref_test.go to the external
// differential tests, which need the bug programs.
var RefApply = refApply
