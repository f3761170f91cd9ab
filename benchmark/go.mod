// The benchmark is its own module so it builds from its own directory
// with its own build file and never enters the root module's build or
// tier-1 test set. The import path stays under pipemare/, which is what
// lets it time pipemare/internal/... layers from outside.
module pipemare/benchmark

go 1.24

require pipemare v0.0.0

replace pipemare => ../
