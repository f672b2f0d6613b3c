module github.com/fcds/fcds/benchmark

go 1.24

require github.com/fcds/fcds v0.0.0

replace github.com/fcds/fcds => ../
