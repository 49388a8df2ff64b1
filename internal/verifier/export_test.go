package verifier

// Programs for the tests in package verifier_test: those that also run Kie,
// which imports this package.
var (
	TwoSocketProgram   = twoSocketProgram
	TwoLostRefsProgram = twoLostRefsProgram
)
