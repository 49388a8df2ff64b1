module kflex/benchmark

go 1.24

require kflex v0.0.0

replace kflex => ../
