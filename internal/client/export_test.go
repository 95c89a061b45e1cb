package client

// DeleteDense exposes the matrix's capture-shaped trace builder to the
// external test package.
var DeleteDense = deleteDense
