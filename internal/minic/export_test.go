package minic

// GenerateProgram exposes the differential generator to the external
// golden test, which cannot import the package's internal test files
// otherwise.
var GenerateProgram = generateProgram
