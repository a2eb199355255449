module rdfcube/benchmark

go 1.22

require rdfcube v0.0.0

replace rdfcube => ../
