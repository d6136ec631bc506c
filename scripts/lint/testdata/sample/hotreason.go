//lint:hotpath Marked with the reason the file is hot.

package sample

// Fixture for the marker form that carries a reason: the file opts into
// the hot-path rule as a bare marker does, so this make(map) is flagged.

func hotReasonMakeMap() map[int]int {
	return make(map[int]int) // flagged: make(map)
}
