package interp

// CheckLatches exposes checkLatches to the external tests, which can
// build the hardened programs (core imports this package).
var CheckLatches = checkLatches
