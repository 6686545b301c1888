module plum/bench

go 1.24

require plum v0.0.0

replace plum => ../
