module hypersolve/benchmark

go 1.24

require hypersolve v0.0.0

replace hypersolve => ../
