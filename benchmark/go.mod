module iflex/benchmark

go 1.22

require iflex v0.0.0

replace iflex => ../
