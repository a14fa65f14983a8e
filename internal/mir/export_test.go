package mir

// The reference printer and parser, for the external differential tests,
// and Print's size estimate.
var (
	RefPrint  = refPrint
	RefParse  = refParse
	PrintSize = printSize
)
