//go:build race

package main

// raceEnabled reports a race-detector build, which runs the server
// several times slower: a short smoke run then ends before the prefix
// cache has filled, so it evicts nothing.
const raceEnabled = true
