//go:build race

package cf

const raceEnabled = true
