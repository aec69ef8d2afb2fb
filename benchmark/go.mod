module github.com/pombm/pombm/benchmark

go 1.24

require github.com/pombm/pombm v0.0.0

replace github.com/pombm/pombm => ../
