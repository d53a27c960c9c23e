module github.com/pcelisp/pcelisp/bench

go 1.24

require github.com/pcelisp/pcelisp v0.0.0

replace github.com/pcelisp/pcelisp => ../
